"""Golden runs: every variant x scheduler at a pinned seed, bitwise.

Each run samples N=8 trajectories of the default scenario through
``run_batch`` and pins two SHA-256 digests: one over the final latents
(``tobytes`` in trajectory order) and one over every trace record's
``(step, t, x_mean, x_rms, alpha_t, lambda_t, s_t, residual)`` as float64.
A refactor of the sampling loop or the guidance step must leave both
unchanged; a change that moves them must say which outputs changed and why.

The base seed is chosen so that repulsion fires in the pinned runs. At seed
11 the full-dcr DDPM run never activates repulsion and its finals equal plain
CFG bitwise, so such a seed would pin nothing of the repulsion path.
"""

import hashlib

import numpy as np
import pytest

from dcr.sampling import BatchItem, SamplerConfig, SchedulerKind, Variant, run_batch
from dcr.toy import ATTRACTOR, TARGET, ToyDenoiser, cosine_schedule, default_scenario

BASE_SEED = 5
N = 8
ITEM_ID = "g"

# (variant, scheduler) -> (sha256 of finals, sha256 of trace records)
GOLDEN = {
    ("full-dcr", "ancestral-ddpm"): (
        "ca3d988f0c2abf86d31a7a032bf8b5920b895600fe78a16ec69e32cac93f5c3c",
        "90decd21bc43186cf557e5c6bf0e5084c94561bd1c82c4a59bcb8084c36e12ad"),
    ("plain-cfg", "ancestral-ddpm"): (
        "3f0bff375362a058f1505304077425b820cf0110223ccfe2e794bd0e0408b275",
        "8c91ea9d9d0092fff9c413bd1f9acd4992843ab35e38f7618a02a4338069d19f"),
    ("negative-prompt", "ancestral-ddpm"): (
        "c73e6408e516f6cfcc17510802894201ebe0ad3f1aafe6b569c120551acd6057",
        "24375c309e76fba01d9a980421f2052ebb45cbd7980aa20528aa374d7e693a0c"),
    ("no-attractor-prompt", "ancestral-ddpm"): (
        "3f0bff375362a058f1505304077425b820cf0110223ccfe2e794bd0e0408b275",
        "f8ba0e0792e4b76e999fb0fb5001562f68bd0ed02696be388eb71f5650eabdfe"),
    ("no-repulsion", "ancestral-ddpm"): (
        "3f0bff375362a058f1505304077425b820cf0110223ccfe2e794bd0e0408b275",
        "0ed41d37864d3d544b2684e632acd77491d60f5e4f02c478cbfe0ebf564ed3b9"),
    ("no-schedule", "ancestral-ddpm"): (
        "de9f70f0f0f2fb047a5f0a39bc1d68c813a2535258f5f2e69ba4e2935776fafd",
        "b758914e011a2f8d58287176c05fed0d6cac92ab597d0e28d0eca71a716b939e"),
    ("full-dcr", "deterministic-ddim"): (
        "04f47d8f7bc78f3547f03f52efcef3158ff0333ffbb718397e36e83656ba902c",
        "61f1089cc9a1037f4c18342f69fbd3a3b98352e0ddfb484a8208072fa9f7fabf"),
    ("plain-cfg", "deterministic-ddim"): (
        "972b8565d39ea03fa79859ab212cf86f7c1ce3af21944944b0b85eef9dbf4d61",
        "2dea3196ee1d977b2224bbf9f061431cb3e74c38392c057f3ed9c84b2e7a9f2a"),
    ("negative-prompt", "deterministic-ddim"): (
        "3a257475f910968f1be91358febb56cecf0d98ff8710ae1f37e2c1c9ed253c20",
        "22c7bd00b729ad4007590586454c0aeead3c8cc670b4d9250f455eb185ef80d7"),
    ("no-attractor-prompt", "deterministic-ddim"): (
        "972b8565d39ea03fa79859ab212cf86f7c1ce3af21944944b0b85eef9dbf4d61",
        "fe2dba0ab146ce07ae7edfdc19479a2ec478f2a3a2d7a920f867f1c9e489a602"),
    ("no-repulsion", "deterministic-ddim"): (
        "972b8565d39ea03fa79859ab212cf86f7c1ce3af21944944b0b85eef9dbf4d61",
        "3beae6da14f8063a6c5c706abede033afa6f0c90425698e711beb093c4bda293"),
    ("no-schedule", "deterministic-ddim"): (
        "f3c2afc8ea653df6ab22d29d27257a1b6d73a5368db6cdd6ed6b3dba740c3a15",
        "a406f4784c91808bb54d5779e7a99641841646f4e4160674eb6b4fcd54f291ea"),
}

# Trajectories (of N) in which lambda_t > 0 at some step.
REPULSION_FIRED = {
    ("full-dcr", "ancestral-ddpm"): 3,
    ("no-schedule", "ancestral-ddpm"): 3,
    ("full-dcr", "deterministic-ddim"): 2,
    ("no-schedule", "deterministic-ddim"): 2,
}


def golden_run(variant: str, scheduler: str):
    scenario = default_scenario()
    cfg = SamplerConfig(T=scenario.steps, guidance=scenario.guidance,
                        variant=variant, scheduler_kind=scheduler, seed=BASE_SEED)
    backend = ToyDenoiser(scenario, cosine_schedule(cfg.T))
    results = run_batch(backend, [BatchItem(ITEM_ID, TARGET, ATTRACTOR)], cfg, N)
    assert all(r.error is None for r in results)
    return results


def digests(results) -> tuple[str, str]:
    finals = hashlib.sha256(b"".join(r.final.tobytes() for r in results))
    records = np.array([[rec.step, rec.t, rec.x_mean, rec.x_rms, rec.alpha_t,
                         rec.lambda_t, rec.s_t, rec.residual]
                        for r in results for rec in r.trace.records],
                       dtype=np.float64)
    return finals.hexdigest(), hashlib.sha256(records.tobytes()).hexdigest()


@pytest.mark.parametrize("variant,scheduler", sorted(GOLDEN))
def test_golden_run_is_bitwise_stable(variant, scheduler):
    results = golden_run(variant, scheduler)
    assert digests(results) == GOLDEN[(variant, scheduler)]
    fired = sum(any(rec.lambda_t > 0.0 for rec in r.trace.records) for r in results)
    assert fired == REPULSION_FIRED.get((variant, scheduler), 0)


def test_golden_table_covers_every_variant_and_scheduler():
    assert set(GOLDEN) == {(v.value, k.value) for v in Variant for k in SchedulerKind}
