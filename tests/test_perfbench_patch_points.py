"""The names perfbench/layers.py wraps exist, and its tracer restores them;
the scenario attributes and trace records perfbench reads exist too.

The traced benchmark times each layer by patching module attributes of
``dcr`` for the span of one operation. A refactor that deletes or renames one
of them would break only the traced benchmark, outside this suite; these
tests build the tracer and enter and leave one operation without running
anything, so the break shows here. A name the program stops calling would
show only as an absent layer; the last test runs one small operation of
each command inside the tracer and checks that the layers still fire.
"""

import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import dcr.sampling
from dcr.cli import main
from dcr.judge import ENDPOINT_VARIABLE
from dcr.sampling import read_traces_jsonl
from dcr.toy import ToyDenoiser, default_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench's module ``name``, loaded by its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_patches_every_name_and_restores_it():
    tracer = load("layers").Tracer()  # looks up every wrapped name
    patches = tracer._patches
    originals = [getattr(mod, name) for mod, name, _ in patches]
    with tracer.op():
        for mod, name, wrapped in patches:
            assert getattr(mod, name) is wrapped, f"{mod.__name__}.{name}"
    for (mod, name, _), orig in zip(patches, originals):
        assert getattr(mod, name) is orig, f"{mod.__name__}.{name} not restored"


def test_the_timed_denoiser_overrides_only_methods_the_denoiser_has():
    # the toy layer is a ToyDenoiser subclass: a method it wraps that the
    # denoiser lost would build, and never fire
    timed = load("layers")._toy_class([None])
    methods = [name for name, value in vars(timed).items()
               if callable(value) and not name.startswith("__")]
    assert methods and all(callable(getattr(ToyDenoiser, name, None)) for name in methods)


def test_the_default_scenario_exposes_what_the_judge_stub_reads():
    # perfbench/run.py and perfbench/pin.py start their judge stub from these
    sc = default_scenario()
    np.testing.assert_array_equal(sc.base.means, [[3.8, 0.0], [-2.0, 1.5], [1.5, 0.0]])
    assert (sc.dominant_index, sc.rare_index) == (0, 1)


def test_the_trace_reader_returns_a_list_of_the_records_the_workload_reads(tmp_path):
    # perfbench's _read_traces wrapper takes len(records), and workloads.observe
    # iterates them twice, once for "final" and once for "step"
    out = tmp_path / "s"
    with redirect_stdout(StringIO()):
        assert main(["sample", "--n", "2", "--steps", "5", "--out", str(out)]) == 0
    _, records = read_traces_jsonl(out / "traces.jsonl")
    assert isinstance(records, list)
    assert sum("step" in r for r in records) == 2 * 5
    assert [len(r["final"]) for r in records if "final" in r] == [2, 2]


LOOP = {"guidance", "sampling.run_batch", "sampling.scheduler_step"}
REPORTED = LOOP | {"metrics"}
BENCH = REPORTED | {"bench.load_suite", "bench.eval_constraint"}


@pytest.mark.parametrize("argv, layers", [
    (["ablate", "--variants", "plain-cfg,full-dcr", "--n", "2"], REPORTED),
    (["sweep", "--axis", "eta", "--values", "0,1", "--w", "3.5", "--n", "2"], REPORTED),
    (["sample", "--n", "2"], LOOP | {"sampling.write_traces", "sampling.read_traces"}),
    (["bench", "--n-per-item", "1"], BENCH),
    (["bench", "--with-judge", "--n-per-item", "1"], BENCH | {"judge"}),
], ids=["ablate", "sweep", "sample", "bench", "bench-judge"])
def test_the_layers_fire_on_every_command(tmp_path, monkeypatch, argv, layers):
    # presence only: a layer that does not fire today is not pinned absent
    sc = default_scenario()
    out = tmp_path / "out"
    with load("judge_stub").JudgeStub(sc.base.means, sc.dominant_index,
                                      sc.rare_index) as stub:
        monkeypatch.setenv(ENDPOINT_VARIABLE, stub.endpoint)
        monkeypatch.setenv("no_proxy", "*")
        with load("layers").Tracer().op() as rec, redirect_stdout(StringIO()):
            assert main([*argv, "--steps", "5", "--out", str(out)]) == 0
            if argv[0] == "sample":
                dcr.sampling.read_traces_jsonl(out / "traces.jsonl")
    fired = {name for name, calls in rec.calls.items() if calls}
    assert layers <= fired, sorted(layers - fired)
