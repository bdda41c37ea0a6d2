import dataclasses
import json

import numpy as np
import pytest
from faults import NaNRows

from dcr.errors import ConfigurationError, TrajectoryError, ValidationError
from dcr.guidance import GuidanceConfig, NoisePrediction
from dcr.sampling import (TRACE_FIELDS, BatchItem, SamplerConfig, SchedulerKind,
                          Variant, derive_seed, read_traces_jsonl, run_batch,
                          run_sampling, scheduler_step, write_traces_jsonl)
from dcr.toy import (ATTRACTOR, TARGET, NoiseScheduleSpec, ToyDenoiser,
                     cosine_schedule, default_scenario)

NP = NoisePrediction.from_array


def small_cfg(variant="full-dcr", T=40, seed=7, scheduler="deterministic-ddim",
              **gkw):
    g = dict(w=1.5, w_attr=1.2, eta=4.0, gamma=2.0, r_s=0.2, r_e=0.8,
             eps_stab=1e-8)
    g.update(gkw)
    return SamplerConfig(T=T, guidance=GuidanceConfig(**g), variant=variant,
                         scheduler_kind=scheduler, seed=seed)


def backend(T=40):
    sc = default_scenario()
    return ToyDenoiser(sc, cosine_schedule(T)), sc


class TestSchedulerStep:
    def test_ddim_near_degenerate_identity(self):
        # with zero prediction, x_{t-1} = x_t * sqrt(ab_prev/ab_t)
        sched = NoiseScheduleSpec(T=2, alpha_bar=np.array([0.6, 0.6 - 1e-12]))
        x = np.array([2.0, -1.0])
        out = scheduler_step(np.zeros(2), 1, x, sched,
                             SchedulerKind.DETERMINISTIC_DDIM)
        want = x * np.sqrt(sched.alpha_bar[0] / sched.alpha_bar[1])
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_true_noise_reconstructs_x0(self):
        # supplying the forward noise as the prediction keeps the trajectory
        # exactly on the forward path; the terminal gap to x0 shrinks with T
        rng = np.random.default_rng(3)
        x0 = np.array([1.5, -0.5])
        z = rng.standard_normal(2)
        errs = {}
        for T in (50, 200, 800):
            sched = cosine_schedule(T)
            t = T - 1
            x = np.sqrt(sched.alpha_bar[t]) * x0 + np.sqrt(1 - sched.alpha_bar[t]) * z
            while t >= 1:
                x = scheduler_step(z, t, x, sched,
                                   SchedulerKind.DETERMINISTIC_DDIM)
                t -= 1
            on_path = (np.sqrt(sched.alpha_bar[0]) * x0
                       + np.sqrt(1 - sched.alpha_bar[0]) * z)
            np.testing.assert_allclose(x, on_path, rtol=0, atol=1e-10)
            errs[T] = float(np.max(np.abs(x - x0)))
        assert errs[200] < errs[50] and errs[800] < errs[200]
        assert errs[800] < 0.02

    def test_ancestral_reproducible_and_no_noise_at_final_step(self):
        sched = cosine_schedule(10)
        x = np.array([0.3, 0.4])
        eps = np.array([0.1, -0.2])
        a = scheduler_step(eps, 5, x, sched, SchedulerKind.ANCESTRAL_DDPM,
                           np.random.default_rng(1).standard_normal(2))
        b = scheduler_step(eps, 5, x, sched, SchedulerKind.ANCESTRAL_DDPM,
                           np.random.default_rng(1).standard_normal(2))
        assert np.array_equal(a, b)
        # the t=1 -> 0 transition adds no noise: the draw is irrelevant
        c = scheduler_step(eps, 1, x, sched, SchedulerKind.ANCESTRAL_DDPM,
                           np.random.default_rng(123).standard_normal(2))
        d = scheduler_step(eps, 1, x, sched, SchedulerKind.ANCESTRAL_DDPM)
        assert np.array_equal(c, d)
        with pytest.raises(ValidationError):
            scheduler_step(eps, 5, x, sched, SchedulerKind.ANCESTRAL_DDPM)

    def test_t_zero_invalid(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValidationError):
            scheduler_step(np.zeros(2), 0, np.zeros(2), sched,
                           SchedulerKind.DETERMINISTIC_DDIM)


class TestRunSampling:
    def test_trace_has_exactly_T_records(self):
        be, _ = backend()
        cfg = small_cfg()
        _, trace = run_sampling(be, (TARGET, ATTRACTOR), cfg)
        assert len(trace.records) == cfg.T
        assert trace.final is not None

    def test_ddim_final_is_pure_function_of_seed(self):
        be, _ = backend()
        cfg = small_cfg(seed=99)
        x1, _ = run_sampling(be, (TARGET, ATTRACTOR), cfg)
        x2, _ = run_sampling(be, (TARGET, ATTRACTOR), cfg)
        assert x1.tobytes() == x2.tobytes()

    def test_w_attr_zero_equals_plain_cfg_bitwise(self):
        be, _ = backend()
        full = small_cfg(variant=Variant.FULL_DCR, w_attr=0.0)
        plain = small_cfg(variant=Variant.PLAIN_CFG, w_attr=0.0)
        xf, tf = run_sampling(be, (TARGET, ATTRACTOR), full)
        xp, tp = run_sampling(be, (TARGET, ATTRACTOR), plain)
        assert xf.tobytes() == xp.tobytes()
        assert all(r.lambda_t == 0.0 for r in tf.records)
        assert all(r.s_t <= 0.0 for r in tf.records)

    def test_no_repulsion_equals_plain_cfg_bitwise(self):
        be, _ = backend()
        xn, tn = run_sampling(be, (TARGET, ATTRACTOR),
                              small_cfg(variant=Variant.NO_REPULSION))
        xp, _ = run_sampling(be, (TARGET, ATTRACTOR),
                             small_cfg(variant=Variant.PLAIN_CFG))
        assert xn.tobytes() == xp.tobytes()
        assert all(r.lambda_t == 0.0 for r in tn.records)
        # the probe is still computed: diagnostics carry the alignment signal
        assert any(r.s_t != 0.0 for r in tn.records)

    def test_no_attractor_prompt_equals_plain_cfg_bitwise(self):
        be, _ = backend()
        xa, _ = run_sampling(be, (TARGET, ATTRACTOR),
                             small_cfg(variant=Variant.NO_ATTRACTOR_PROMPT))
        xp, _ = run_sampling(be, (TARGET, ATTRACTOR),
                             small_cfg(variant=Variant.PLAIN_CFG))
        assert xa.tobytes() == xp.tobytes()

    def test_lambda_zero_outside_interval(self):
        be, _ = backend()
        cfg = small_cfg(eta=64.0, w_attr=1.45)
        _, trace = run_sampling(be, (TARGET, ATTRACTOR), cfg)
        g = cfg.guidance
        for rec in trace.records:
            pi = rec.step / (cfg.T - 1)
            if pi < g.r_s or pi > g.r_e:
                assert rec.lambda_t == 0.0

    def test_negative_prompt_variant_runs(self):
        be, _ = backend()
        x, trace = run_sampling(be, (TARGET, ATTRACTOR),
                                small_cfg(variant=Variant.NEGATIVE_PROMPT))
        assert np.all(np.isfinite(x))
        assert all(r.lambda_t == 0.0 for r in trace.records)

    def test_T_mismatch_rejected(self):
        be, _ = backend(T=40)
        with pytest.raises(ConfigurationError):
            run_sampling(be, (TARGET, ATTRACTOR), small_cfg(T=50))

    def test_backend_failure_carries_step(self):
        class Boom:
            schedule = cosine_schedule(8)
            latent_shape = (2,)

            def __init__(self):
                self.calls = 0

            def epsilon(self, x, t, channel):
                self.calls += 1
                if self.calls > 4:
                    raise RuntimeError("backend fell over")
                return NP(np.zeros(2))

        with pytest.raises(TrajectoryError) as err:
            run_sampling(Boom(), (TARGET, ATTRACTOR),
                         small_cfg(T=8, variant=Variant.PLAIN_CFG))
        assert err.value.step >= 1


def record_bytes(trace) -> bytes:
    return np.array([dataclasses.astuple(rec) for rec in trace.records],
                    dtype=np.float64).tobytes()


class TestRunBatch:
    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    @pytest.mark.parametrize("n_per_item", [1, 5])
    def test_n1_reproduces_run_sampling(self, n_per_item, scheduler):
        # each replicate of a batch equals its lone run, bitwise
        be, _ = backend()
        cfg = small_cfg(seed=11, scheduler=scheduler)
        results = run_batch(be, [BatchItem("item-a")], cfg, n_per_item)
        assert [r.replicate for r in results] == list(range(n_per_item))
        for res in results:
            rng = np.random.default_rng(derive_seed(11, "item-a", res.replicate))
            x, trace = run_sampling(be, (TARGET, ATTRACTOR), cfg, rng=rng,
                                    trajectory_id=f"item-a/{res.replicate}")
            assert res.final.tobytes() == x.tobytes()
            assert res.trace.trajectory_id == trace.trajectory_id
            assert record_bytes(res.trace) == record_bytes(trace)

    def test_order_independence(self):
        be, _ = backend()
        cfg = small_cfg(seed=5)
        items = [BatchItem(f"i{k}") for k in range(4)]
        fwd = run_batch(be, items, cfg, 2)
        rev = run_batch(be, list(reversed(items)), cfg, 2)
        by_key_fwd = {(r.item_id, r.replicate): r.final.tobytes() for r in fwd}
        by_key_rev = {(r.item_id, r.replicate): r.final.tobytes() for r in rev}
        assert by_key_fwd == by_key_rev

    def test_suite_cardinality(self):
        # 8 categories x 50 items x n trajectories
        be, _ = backend(T=4)
        cfg = small_cfg(T=4)
        items = [BatchItem(f"{cat}-{i:03d}")
                 for cat in ("ENV", "TEMP", "OBJ", "ATTR", "SCALE", "CTX", "MAT", "DENS")
                 for i in range(50)]
        results = run_batch(be, items, cfg, 1)
        assert len(results) == 400

    @pytest.mark.parametrize("n_per_item", [1, 3])
    def test_failures_do_not_abort_batch(self, n_per_item):
        # Flaky accepts one latent only: every batched call raises and each
        # step is retried row by row
        class Flaky:
            schedule = cosine_schedule(6)
            latent_shape = (2,)

            def epsilon(self, x, t, channel):
                if abs(float(x[0])) > 0.8:
                    raise RuntimeError("no")
                return NP(np.zeros(2))

        cfg = small_cfg(T=6, variant=Variant.PLAIN_CFG)
        results = run_batch(Flaky(), [BatchItem(f"x{k}") for k in range(10)], cfg,
                            n_per_item)
        assert len(results) == 10 * n_per_item
        errs = [r for r in results if r.error is not None]
        oks = [r for r in results if r.error is None]
        assert errs and oks
        assert all("backend failure: no (step" in r.error for r in errs)
        assert all(r.final is None and r.trace is None for r in errs)
        assert all(len(r.trace.records) == 6 for r in oks)

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_non_finite_rows_fail_alone(self, scheduler):
        T, k, bad = 12, 4, {1, 3}
        cfg = small_cfg(T=T, scheduler=scheduler)
        be, sc = backend(T)
        clean = run_batch(be, [BatchItem("nan")], cfg, 5)
        got = run_batch(NaNRows(sc, cosine_schedule(T), bad, k),
                        [BatchItem("nan")], cfg, 5)
        for res, ref in zip(got, clean):
            if res.replicate in bad:
                assert res.final is None
                assert res.error.startswith("backend failure: ")
                assert res.error.endswith(f"(step {k})")
            else:
                assert res.error is None
                assert res.final.tobytes() == ref.final.tobytes()
                assert record_bytes(res.trace) == record_bytes(ref.trace)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_latent_fails_its_row(self):
        # at t=5, rows with x[0] > 0 get a finite prediction that overflows
        # the scheduler update
        class Huge(ToyDenoiser):
            def epsilon(self, x_t, t, channel_label):
                eps = super().epsilon(x_t, t, channel_label).reshape()
                if t == 5:
                    eps = np.where(np.asarray(x_t)[..., :1] > 0, 1e308, eps)
                return NP(eps)

        T = 8
        cfg = small_cfg(T=T, variant=Variant.PLAIN_CFG)
        sc = default_scenario()
        results = run_batch(Huge(sc, cosine_schedule(T)), [BatchItem("h")], cfg, 6)
        errs = [r for r in results if r.error is not None]
        assert errs and len(errs) < 6
        assert all(r.error == "non-finite latent (step 2)" for r in errs)


class TestTraceExport:
    def test_roundtrip_and_field_order(self, tmp_path):
        be, _ = backend(T=6)
        cfg = small_cfg(T=6)
        results = run_batch(be, [BatchItem("a"), BatchItem("b")], cfg, 1)
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl([r.trace for r in results], path, manifest_ref="m.json")
        header, records = read_traces_jsonl(path)
        assert header["manifest"] == "m.json"
        step_records = [r for r in records if "step" in r]
        final_records = [r for r in records if "final" in r]
        assert len(step_records) == 2 * 6
        assert len(final_records) == 2
        assert tuple(step_records[0].keys()) == TRACE_FIELDS

    def test_byte_stable(self, tmp_path):
        be, _ = backend(T=6)
        cfg = small_cfg(T=6)
        results = run_batch(be, [BatchItem("a")], cfg, 2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_traces_jsonl([r.trace for r in results], p1, manifest_ref="m")
        write_traces_jsonl([r.trace for r in results], p2, manifest_ref="m")
        assert p1.read_bytes() == p2.read_bytes()


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        s1 = derive_seed(1, "item", 0)
        assert s1 == derive_seed(1, "item", 0)
        assert s1 != derive_seed(1, "item", 1)
        assert s1 != derive_seed(2, "item", 0)
        assert 0 <= s1 < 2 ** 63


class TestCollapseInvariant:
    @pytest.mark.parametrize("w", [1.5, 2.5])
    def test_plain_cfg_collapse_strictly_positive(self, w):
        # leakage_beta > 0 keeps a positive dominant-mode fraction under
        # plain CFG at any finite guidance scale
        sc = default_scenario()
        be = ToyDenoiser(sc, cosine_schedule(sc.steps))
        cfg = SamplerConfig(T=sc.steps,
                            guidance=GuidanceConfig(w=w, w_attr=0.0),
                            variant=Variant.PLAIN_CFG,
                            scheduler_kind=SchedulerKind.ANCESTRAL_DDPM,
                            seed=13)
        results = run_batch(be, [BatchItem("inv")], cfg, 400)
        dom = sc.base.means[sc.dominant_index]
        hits = sum(1 for r in results
                   if np.linalg.norm(r.final - dom) ==
                   min(np.linalg.norm(r.final - m) for m in sc.base.means))
        assert hits > 0


class CountingBackend(ToyDenoiser):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {}

    def epsilon(self, x_t, t, channel_label):
        self.calls[channel_label] = self.calls.get(channel_label, 0) + 1
        return super().epsilon(x_t, t, channel_label)


class TestGuidedStep:
    # channel evaluations per step; the attractor branch is skipped where the
    # variant has no use for it
    PER_STEP = {
        "plain-cfg": {"uncond": 1, "target": 1},
        "negative-prompt": {"attractor": 1, "target": 1},
        "no-attractor-prompt": {"uncond": 1, "target": 1},
        "full-dcr": {"uncond": 1, "target": 1, "attractor": 1},
        "no-repulsion": {"uncond": 1, "target": 1, "attractor": 1},
        "no-schedule": {"uncond": 1, "target": 1, "attractor": 1},
    }

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_backend_calls_per_step(self, variant):
        T = 12
        be = CountingBackend(default_scenario(), cosine_schedule(T))
        run_sampling(be, (TARGET, ATTRACTOR), small_cfg(variant, T=T))
        assert be.calls == {ch: n * T for ch, n in self.PER_STEP[variant].items()}
        # a batch makes the same calls: each takes all rows of the item
        be.calls = {}
        run_batch(be, [BatchItem("calls")], small_cfg(variant, T=T), 4)
        assert be.calls == {ch: n * T for ch, n in self.PER_STEP[variant].items()}
