import dataclasses
import json
import tracemalloc

import numpy as np
import oracles
import pytest
from faults import CountingBackend, NaNRows, NaNWhere

import dcr.guidance
import dcr.sampling
from dcr.errors import ConfigurationError, TrajectoryError, ValidationError
from dcr.guidance import GuidanceConfig, NoisePrediction
from dcr.sampling import (TRACE_FIELDS, BatchItem, SamplerConfig, SchedulerKind,
                          TraceRecords, TrajectoryTrace, Variant, derive_seed,
                          read_traces_jsonl, run_batch, run_sampling, scheduler_step,
                          write_traces_jsonl)
from dcr.toy import (ATTRACTOR, TARGET, UNCOND, NoiseScheduleSpec, ToyDenoiser,
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

    @pytest.mark.parametrize("T", [2, 3, 100, 1000])
    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_equals_the_oracle_at_every_t(self, T, kind):
        # the cached per-t coefficients round exactly as deriving them at
        # each call did, for one latent and for a batch of them
        sched = cosine_schedule(T)
        deterministic = kind is SchedulerKind.DETERMINISTIC_DDIM
        rng = np.random.default_rng(T)
        for shape in ((2,), (48, 2)):
            for t in range(1, T):
                x, eps, noise = (rng.standard_normal(shape) for _ in range(3))
                want = oracles.np_scheduler_step(eps, t, x, sched.alpha_bar,
                                                 deterministic, noise)
                got = scheduler_step(eps, t, x, sched, kind, noise)
                assert got.tobytes() == want.tobytes(), (shape, t)

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

    def test_records_index_like_a_list(self):
        be, _ = backend()
        _, trace = run_sampling(be, (TARGET, ATTRACTOR), small_cfg())
        records = list(trace.records)
        assert [rec.step for rec in records] == list(range(40))
        assert [rec.t for rec in records] == list(range(39, -1, -1))
        assert trace.records[0] == records[0] and trace.records[-1] == records[-1]
        assert trace.records[3:7] == records[3:7]
        with pytest.raises(IndexError):
            trace.records[40]

    def test_every_index_builds_the_record_list_indexing_gives(self):
        be, _ = backend(T=9)
        _, trace = run_sampling(be, (TARGET, ATTRACTOR), small_cfg(T=9))
        records = list(trace.records)
        for k in range(-9, 9):
            assert trace.records[k] == records[k]
        for k in (9, -10):
            with pytest.raises(IndexError):
                trace.records[k]
        for sl in (slice(None), slice(2, 5), slice(None, None, -2), slice(7, 100)):
            assert trace.records[sl] == records[sl]

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

            def epsilon_channels(self, x, t, labels):
                self.calls += 1
                if self.calls > 2:
                    raise RuntimeError("backend fell over")
                return np.zeros((len(labels), *np.shape(x)))

        with pytest.raises(TrajectoryError) as err:
            run_sampling(Boom(), (TARGET, ATTRACTOR),
                         small_cfg(T=8, variant=Variant.PLAIN_CFG))
        assert err.value.step == 2
        assert str(err.value) == "backend failure: backend fell over (step 2)"


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
        # Flaky accepts one row only: every batched call raises and each
        # step is retried row by row
        class Flaky:
            schedule = cosine_schedule(6)
            latent_shape = (2,)

            def epsilon_channels(self, x, t, labels):
                [row] = x
                if abs(float(row[0])) > 0.8:
                    raise RuntimeError("no")
                return np.zeros((len(labels), 1, 2))

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

    @pytest.mark.parametrize("k", [4, 11])
    def test_non_finite_stack_that_does_not_raise_is_retried(self, k):
        # a backend that breaks the contract: its batched epsilon_channels
        # returns NaN at row 0 without raising, while its one-row calls are
        # clean. The loop must not step on the NaN (at the last step, t = 0,
        # it would only reach the diagnostics); the retry recovers the row.
        class SilentNaN(ToyDenoiser):
            def epsilon_channels(self, x_t, t, labels):
                eps = super().epsilon_channels(x_t, t, labels)
                if t == T - 1 - k and len(x_t) > 1:
                    eps = eps.copy()
                    eps[:, 0] = np.nan
                return eps

        T = 12
        cfg = small_cfg(T=T)
        be, sc = backend(T)
        clean = run_batch(be, [BatchItem("nan")], cfg, 3)
        got = run_batch(SilentNaN(sc, cosine_schedule(T)), [BatchItem("nan")], cfg, 3)
        assert got.errors == {}
        for res, ref in zip(got, clean):
            assert res.final.tobytes() == ref.final.tobytes()
            assert record_bytes(res.trace) == record_bytes(ref.trace)

    @staticmethod
    def huge_run(scheduler, every_row):
        """A batch of 6 rows and its clean run, where at t=6 (step 1) rows
        with x[0] > 0, or every row, get the largest finite prediction: both
        schedulers' updates overflow there. Also returns the t of every
        backend call."""
        steps = []

        class Huge(ToyDenoiser):
            def epsilon_channels(self, x_t, t, labels):
                steps.append(t)
                eps = super().epsilon_channels(x_t, t, labels)
                if t == 6:
                    hit = True if every_row else np.asarray(x_t)[..., :1] > 0
                    eps = np.where(hit, np.finfo(np.float64).max, eps)
                return eps

        T = 8
        cfg = small_cfg(T=T, variant=Variant.PLAIN_CFG, scheduler=scheduler)
        be, sc = backend(T)
        clean = run_batch(be, [BatchItem("h")], cfg, 6)
        return run_batch(Huge(sc, cosine_schedule(T)), [BatchItem("h")], cfg, 6), clean, steps

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_latent_fails_its_row(self):
        for scheduler in SchedulerKind:
            results, clean, steps = self.huge_run(scheduler, every_row=False)
            errs = [r for r in results if r.error is not None]
            assert errs and len(errs) < 6
            assert all(r.error == "non-finite latent (step 1)" for r in errs)
            assert min(steps) == 0
            for res, ref in zip(results, clean):
                if res.error is None:
                    assert res.final.tobytes() == ref.final.tobytes()
                    assert record_bytes(res.trace) == record_bytes(ref.trace)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_a_step_that_fails_every_row_ends_the_batch(self):
        for scheduler in SchedulerKind:
            results, _, steps = self.huge_run(scheduler, every_row=True)
            assert not results.ok.any() and np.isnan(results.finals).all()
            assert all(r.error == "non-finite latent (step 1)" for r in results)
            assert min(steps) == 6  # no backend call after the failed step


# Two items with different channel pairs, so the rows of one batch need
# different channels in each branch.
MIXED_ITEMS = (BatchItem("a", TARGET, ATTRACTOR), BatchItem("b", ATTRACTOR, TARGET))


def mixed_batch(be, cfg, n_per_item):
    """Every item under every variant as one batch, and each item-and-variant
    batch alone, in the same order."""
    items = [dataclasses.replace(item, variant=v) for item in MIXED_ITEMS
             for v in Variant]
    mixed = run_batch(be, items, cfg, n_per_item)
    alone = [r for item in items
             for r in run_batch(be, [dataclasses.replace(item, variant=None)],
                                dataclasses.replace(cfg, variant=item.variant),
                                n_per_item)]
    return mixed, alone


class TestMixedBatch:
    """All items and variants of a run step as one batch; each row's result
    is bitwise that of its own item-and-variant batch."""

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_equals_each_item_and_variant_batch(self, scheduler):
        # at seed 3 repulsion fires in both schedulers
        sc = default_scenario()
        cfg = SamplerConfig(T=sc.steps, guidance=sc.guidance, scheduler_kind=scheduler,
                            seed=3)
        mixed, alone = mixed_batch(ToyDenoiser(sc, cosine_schedule(cfg.T)), cfg, 3)
        assert len(mixed) == len(alone) == 2 * len(Variant) * 3
        for got, want in zip(mixed, alone):
            assert (got.item_id, got.replicate) == (want.item_id, want.replicate)
            assert got.final.tobytes() == want.final.tobytes()
            assert got.trace.trajectory_id == want.trace.trajectory_id
            assert record_bytes(got.trace) == record_bytes(want.trace)
        # the repulsion path is exercised, not only plain CFG
        assert any(rec.lambda_t > 0.0 for r in mixed for rec in r.trace.records)

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_fault_fails_only_its_own_rows_at_the_same_step(self, scheduler):
        T, k = 12, 4
        sc = default_scenario()
        cfg = small_cfg(T=T, seed=2, scheduler=scheduler)
        mixed, alone = mixed_batch(NaNWhere(sc, cosine_schedule(T), k), cfg, 3)
        errors = [r.error for r in mixed if r.error is not None]
        assert errors and len(errors) < len(mixed)
        assert all(e.startswith("backend failure: ") and e.endswith(f"(step {k})")
                   for e in errors)
        for got, want in zip(mixed, alone):
            assert got.error == want.error
            if want.error is None:
                assert got.final.tobytes() == want.final.tobytes()
                assert record_bytes(got.trace) == record_bytes(want.trace)

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    @pytest.mark.parametrize("dead", [(0, 1, 2, 4), (1, 3, 4, 5)])
    def test_rows_that_outlive_others_equal_their_lone_runs(self, scheduler, dead):
        # rows 0-2 run plain CFG, rows 3-5 full DCR, and the dead rows leave
        # at step k. So the posterior's workspace changes shape mid-run (one
        # row in the retry, then the survivors), and the survivors all run
        # one variant, so the loop works out their repel and probe gates anew
        T, k, seed = 12, 4, 2
        sc = default_scenario()
        cfg = small_cfg(T=T, seed=seed, scheduler=scheduler)
        items = [BatchItem("a", variant=Variant.PLAIN_CFG),
                 BatchItem("b", variant=Variant.FULL_DCR)]
        got = run_batch(NaNRows(sc, cosine_schedule(T), dead, k), items, cfg, 3)
        be = ToyDenoiser(sc, cosine_schedule(T))
        for r, res in enumerate(got):
            if r in dead:
                assert res.error.endswith(f"(step {k})")
                continue
            item = items[r // 3]
            rng = np.random.default_rng(derive_seed(seed, item.item_id, res.replicate))
            x, trace = run_sampling(be, (TARGET, ATTRACTOR),
                                    dataclasses.replace(cfg, variant=item.variant), rng=rng)
            assert res.error is None
            assert res.final.tobytes() == x.tobytes()
            assert record_bytes(res.trace) == record_bytes(trace)

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_a_fault_in_a_channel_the_row_does_not_need_spares_it(self, scheduler):
        # rows 0-2 run plain CFG, which never reads the attractor channel;
        # rows 3-5 run full DCR, which does. A NaN attractor prediction at
        # rows 1 and 4 makes the batched call raise; the retry evaluates only
        # the channels each row needs, so row 4 fails and row 1 runs on.
        T, k = 12, 4
        sc = default_scenario()
        cfg = small_cfg(T=T, seed=2, scheduler=scheduler)
        items = [BatchItem("p", variant=Variant.PLAIN_CFG),
                 BatchItem("f", variant=Variant.FULL_DCR)]
        clean = run_batch(ToyDenoiser(sc, cosine_schedule(T)), items, cfg, 3)
        got = run_batch(NaNRows(sc, cosine_schedule(T), {1, 4}, k, label=ATTRACTOR),
                        items, cfg, 3)
        assert list(got.errors) == [4] and got.errors[4].step == k
        for r in (0, 1, 2, 3, 5):
            assert got[r].final.tobytes() == clean[r].final.tobytes()
            assert record_bytes(got[r].trace) == record_bytes(clean[r].trace)

    def test_item_variant_overrides_the_config(self):
        be, _ = backend(T=8)
        cfg = small_cfg(T=8, variant=Variant.FULL_DCR)
        [item] = run_batch(be, [BatchItem("v", variant="plain-cfg")], cfg, 1)
        [plain] = run_batch(be, [BatchItem("v")],
                            small_cfg(T=8, variant=Variant.PLAIN_CFG), 1)
        assert item.final.tobytes() == plain.final.tobytes()
        assert record_bytes(item.trace) == record_bytes(plain.trace)


class RowByRow(ToyDenoiser):
    """A ToyDenoiser whose calls on more than one row raise, so the loop
    retries every step row by row. Logs each call's t, row count and labels,
    and returns NaN, without raising, from the one-row call of live row
    ``bad`` at step index ``k``."""

    def __init__(self, scenario, sched, bad=None, k=None):
        super().__init__(scenario, sched)
        self.log = []
        self.bad, self.t_bad = bad, None if k is None else sched.T - 1 - k

    def epsilon_channels(self, x_t, t, labels):
        self.log.append((t, len(x_t), tuple(labels)))
        if len(x_t) > 1:
            raise RuntimeError("one row at a time")
        eps = super().epsilon_channels(x_t, t, labels)
        row = sum(1 for call in self.log if call[:2] == (t, 1)) - 1
        if t == self.t_bad and row == self.bad:
            eps[:] = np.nan
        return eps


class TestRowByRowRetry:
    """A failed batched call is retried through epsilon_channels, one call
    per live row on its one-row slice, for the channels that row needs."""

    T, K = 10, 4
    # rows 0-2 run plain CFG, which never reads the attractor channel; rows
    # 3-5 run full DCR, which does
    ITEMS = [BatchItem("p", variant=Variant.PLAIN_CFG),
             BatchItem("f", variant=Variant.FULL_DCR)]

    def run(self, **fault):
        sc = default_scenario()
        cfg = small_cfg(T=self.T, seed=2)
        be = RowByRow(sc, cosine_schedule(self.T), **fault)
        clean = run_batch(ToyDenoiser(sc, cosine_schedule(self.T)), self.ITEMS, cfg, 3)
        return be, run_batch(be, self.ITEMS, cfg, 3), clean

    def test_one_one_row_call_per_live_row_for_the_channels_it_needs(self):
        be, got, clean = self.run()
        plain, full = (UNCOND, TARGET), (UNCOND, TARGET, ATTRACTOR)
        for t in range(self.T):
            calls = [(rows, labels) for step, rows, labels in be.log if step == t]
            assert calls == [(6, full)] + [(1, plain)] * 3 + [(1, full)] * 3
        assert got.errors == {}
        assert got.finals.tobytes() == clean.finals.tobytes()
        for res, ref in zip(got, clean):
            assert record_bytes(res.trace) == record_bytes(ref.trace)

    @pytest.mark.parametrize("bad", [1, 4])
    def test_a_row_whose_own_stack_is_not_finite_fails_alone(self, bad):
        be, got, clean = self.run(bad=bad, k=self.K)
        assert {r: (str(e), e.step) for r, e in got.errors.items()} == {bad: (
            f"backend failure: latent values must be finite (no NaN/Inf) (step {self.K})",
            self.K)}
        # the failed row is not asked again
        after = [rows for t, rows, _ in be.log if t < self.T - 1 - self.K and rows == 1]
        assert len(after) == 5 * (self.T - 1 - self.K)
        for r in set(range(6)) - {bad}:
            assert got[r].final.tobytes() == clean[r].final.tobytes()
            assert record_bytes(got[r].trace) == record_bytes(clean[r].trace)

    def test_a_backend_without_epsilon_channels_fails_before_any_step(self):
        class EpsilonOnly:
            schedule = cosine_schedule(8)
            latent_shape = (2,)

            def __init__(self):
                self.calls = 0

            def epsilon(self, x, t, channel):
                self.calls += 1
                return NP(np.zeros(np.shape(x)))

        be = EpsilonOnly()
        with pytest.raises(AttributeError, match="epsilon_channels"):
            run_batch(be, [BatchItem("e")], small_cfg(T=8), 2)
        with pytest.raises(AttributeError, match="epsilon_channels"):
            run_sampling(be, (TARGET, ATTRACTOR), small_cfg(T=8))
        assert be.calls == 0


class TestTraceFree:
    """A run without SamplerConfig.trace returns the finals, ok and errors
    of the traced run, bitwise, and records no diagnostics."""

    ITEMS = [dataclasses.replace(item, variant=v) for item in MIXED_ITEMS
             for v in Variant]

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    @pytest.mark.parametrize("fault", [False, True])
    def test_finals_and_failures_equal_the_traced_run(self, scheduler, fault):
        # at seed 3 repulsion fires in both schedulers; the fault poisons
        # rows 1, 8 and 30 of 36 from step k on, and every row whose latent
        # equals one of theirs there (the variants of one item and
        # replicate step alike until repulsion fires)
        T, k = 100, 37
        sc = default_scenario()
        cfg = SamplerConfig(T=T, guidance=sc.guidance, scheduler_kind=scheduler,
                            seed=3)

        def make():
            if fault:
                return NaNRows(sc, cosine_schedule(T), {1, 8, 30}, k)
            return ToyDenoiser(sc, cosine_schedule(T))

        traced = run_batch(make(), self.ITEMS, cfg, 3)
        free = run_batch(make(), self.ITEMS, dataclasses.replace(cfg, trace=False), 3)
        assert any(rec.lambda_t > 0.0 for r in traced if r.trace
                   for rec in r.trace.records)
        assert free.finals.tobytes() == traced.finals.tobytes()
        assert free.ok.tolist() == traced.ok.tolist()
        errors = {r: (str(e), e.step) for r, e in free.errors.items()}
        assert errors == {r: (str(e), e.step) for r, e in traced.errors.items()}
        assert ({1, 8, 30} <= set(errors) and len(errors) < len(free)) if fault \
            else not errors
        assert all(step == k for _, step in errors.values())

    def test_records_no_diagnostics(self, monkeypatch):
        calls = []
        residual = dcr.guidance._residual

        def counting(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(dcr.guidance, "_residual", counting)
        T, n = 8, 2
        be, _ = backend(T)
        cfg = dataclasses.replace(small_cfg(T=T), trace=False)
        batch = run_batch(be, self.ITEMS, cfg, n)
        assert calls == []
        assert batch.diagnostics is None
        assert not any(np.shape(v) == (T, len(batch), 6) for v in vars(batch).values())
        assert all(r.trace is None and r.final is not None for r in batch)
        assert run_batch(be, [], cfg, 1).diagnostics is None
        # a traced run computes its residuals after the loop, in a number of
        # calls that does not grow with T
        per_run = []
        for T in (8, 16):
            calls.clear()
            run_batch(backend(T)[0], self.ITEMS, small_cfg(T=T), n)
            per_run.append(len(calls))
        assert per_run[0] == per_run[1] > 0


class OverflowWhere(ToyDenoiser):
    """A ToyDenoiser whose predictions are the largest finite float at step
    index 1 (t = T - 2) for every row whose latent has a first coordinate
    above 0.5, so the scheduler update of those rows overflows there."""

    def epsilon_channels(self, x_t, t, labels):
        eps = super().epsilon_channels(x_t, t, labels)
        if t == self.schedule.T - 2:
            eps = np.where(np.asarray(x_t)[..., :1] > 0.5, np.finfo(np.float64).max, eps)
        return eps


class Elementwise:
    """A backend of latent shape (3, 3), 9 values, so every sum over a
    latent has the 8 terms from which numpy sums pairwise. Each channel is
    an elementwise map of x, so a row depends on its own latent alone.
    ``epsilon`` is its one-channel case, for tests/oracles.py."""

    SCALE = {UNCOND: 0.8, TARGET: 1.1, ATTRACTOR: 1.6}

    def __init__(self, T):
        self.schedule, self.latent_shape = cosine_schedule(T), (3, 3)

    def epsilon_channels(self, x_t, t, labels):
        x = np.asarray(x_t, dtype=np.float64)
        return np.stack([np.tanh(self.SCALE[label] * x) + 0.01 * t for label in labels])

    def epsilon(self, x_t, t, channel_label):
        return NP(self.epsilon_channels(x_t, t, [channel_label])[0])


class TestDiagnosticsPass:
    """A traced batch computes its diagnostics after the loop; they equal,
    bitwise, what the per-step reference in tests/oracles.py records for
    each row alone, zeros after a failure included."""

    @staticmethod
    def check(be, items, cfg, n_per_item):
        batch = run_batch(be, items, cfg, n_per_item)
        sched = be.schedule
        shape = (cfg.T - 1 if cfg.scheduler_kind is SchedulerKind.ANCESTRAL_DDPM else 1,
                 *be.latent_shape)
        deterministic = cfg.scheduler_kind is SchedulerKind.DETERMINISTIC_DDIM
        failures = {}
        for r, (item_id, rep) in enumerate(batch.keys):
            item = items[r // n_per_item]
            draws = np.random.default_rng(derive_seed(cfg.seed, item_id, rep)) \
                .standard_normal(shape)
            want, failure, final = oracles.traced_trajectory(
                be.epsilon, draws, sched.alpha_bar.tolist(), deterministic,
                (item.prompt_channel, item.attractor_channel),
                (item.variant or cfg.variant).value, cfg.guidance)
            got = batch.diagnostics[:, r]
            assert got.tobytes() == want.tobytes()
            if failure is None:
                assert r not in batch.errors
                assert batch.finals[r].tobytes() == final.tobytes()
                continue
            kind, step = failure
            err = batch.errors[r]
            assert str(err).startswith(kind) and err.step == step
            # a backend failure leaves no record at its step
            assert not got[step + (kind == "non-finite latent"):].any()
            failures[r] = kind
        return batch, failures

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    @pytest.mark.parametrize("fault", [None, "backend failure", "non-finite latent"])
    def test_equal_the_per_step_reference(self, scheduler, fault, monkeypatch):
        # all six variants of two items, 36 rows of 2 values, T = 100 in
        # blocks of 7 steps, the last one of 2; at seed 3 repulsion fires in
        # both schedulers. The backend fault poisons rows 1 and 8 from step
        # 37 on, with every row that shares their latent there; the overflow
        # fails the rows whose latent lies right of 0.5 at step 1
        monkeypatch.setattr(dcr.sampling, "_BLOCK_VALUES", 7 * 36 * 2)
        T = 100
        sc = default_scenario()
        cfg = SamplerConfig(T=T, guidance=sc.guidance, scheduler_kind=scheduler,
                            seed=3)
        be = {None: ToyDenoiser(sc, cosine_schedule(T)),
              "backend failure": NaNRows(sc, cosine_schedule(T), {1, 8}, 37),
              "non-finite latent": OverflowWhere(sc, cosine_schedule(T))}[fault]
        batch, failures = self.check(be, TestTraceFree.ITEMS, cfg, 3)
        if fault is None:
            assert not failures and (batch.diagnostics[:, :, 3] > 0.0).any()
        else:
            assert set(failures.values()) == {fault} and len(failures) < len(batch)

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_equal_the_per_step_reference_at_9_latent_values(self, scheduler):
        cfg = small_cfg(T=20, scheduler=scheduler)
        items = [BatchItem("e", variant=v) for v in Variant]
        batch, failures = self.check(Elementwise(cfg.T), items, cfg, 2)
        assert not failures and batch.diagnostics.shape == (20, 12, 6)


class TestBatchColumns:
    def test_row_views_read_the_columns(self):
        be, _ = backend(T=8)
        cfg = small_cfg(T=8)
        batch = run_batch(be, [BatchItem("a"), BatchItem("b")], cfg, 3)
        assert len(batch) == 6 and batch.finals.shape == (6, 2)
        assert batch.diagnostics.shape == (8, 6, 6)
        assert batch.trajectory_ids == [f"{i}/{r}" for i in "ab" for r in range(3)]
        assert batch.ok.all() and batch.errors == {}
        # iterating twice gives the same rows; indexing as a list does
        first, second = list(batch), list(batch)
        assert [(r.item_id, r.replicate) for r in first] == \
            [(r.item_id, r.replicate) for r in second] == batch.keys
        for r, (one, two) in enumerate(zip(first, second)):
            assert one.final.tobytes() == two.final.tobytes() == batch.finals[r].tobytes()
            assert one.trace.trajectory_id == batch.trajectory_ids[r]
            assert record_bytes(one.trace) == record_bytes(two.trace)
        assert batch[-1].replicate == 2 and batch[-1].item_id == "b"
        with pytest.raises(IndexError):
            batch[6]
        [only] = run_batch(be, [BatchItem("a")], cfg, 1)
        assert only.final.tobytes() == batch[0].final.tobytes()

    def test_a_row_cannot_write_into_the_batch(self):
        be, _ = backend(T=8)
        batch = run_batch(be, [BatchItem("a")], small_cfg(T=8), 2)
        before = batch.finals.copy()
        row = batch[0]
        for array in (row.final, row.trace.final, batch.finals):
            with pytest.raises(ValueError):
                array[0] = 123.0
        with pytest.raises(ValueError):
            batch.diagnostics[0, 0, 0] = 1.0
        assert batch.finals.tobytes() == before.tobytes()
        assert batch[0].final.tobytes() == before[0].tobytes()
        # run_sampling hands back a writable copy of its final latent
        x, trace = run_sampling(be, (TARGET, ATTRACTOR), small_cfg(T=8))
        kept = trace.final.copy()
        x[0] = 123.0
        assert trace.final.tobytes() == kept.tobytes()

    def test_failed_rows_are_errors_and_nan_finals(self):
        T, k, bad = 12, 4, {1, 3}
        be, sc = backend(T)
        batch = run_batch(NaNRows(sc, cosine_schedule(T), bad, k),
                          [BatchItem("nan")], small_cfg(T=T), 5)
        assert sorted(batch.errors) == sorted(bad)
        assert batch.ok.tolist() == [r not in bad for r in range(5)]
        assert all(batch.errors[r].step == k for r in bad)
        assert np.isnan(batch.finals[sorted(bad)]).all()
        assert np.isfinite(batch.finals[batch.ok]).all()
        assert [r.error is not None for r in batch] == [r in bad for r in range(5)]


# Diagnostics that json.dumps spells in every way it can: signed zero,
# subnormals, the largest magnitudes, shortest-repr decimals, non-finite.
SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
           -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 0.1,
           1e16, 1e-7, -123.456, 1 / 3]
ODD_IDS = ['say "hi"', "back\\slash", "new\nline", "ñandú/日本/0",
           "tab\tand\u2028sep", "plain/0"]


def hand_built_traces(ids=ODD_IDS, T=5):
    """Traces over hand-built (T, N, 6) columns holding every SPECIAL value."""
    n = len(ids)
    values = np.resize(np.array(SPECIAL), T * n * 6)
    cols = values.reshape(T, n, 6)
    finals = np.resize(np.array([0.5, -0.0, 1e-320, 7.25]), (n, 2))
    return [TrajectoryTrace(tid, TraceRecords(cols, r), finals[r])
            for r, tid in enumerate(ids)]


def repeated_column_traces(T=4):
    """Traces whose columns repeat the previous trace's, or equal it as floats
    but not bitwise (0.0 and -0.0)."""
    cols = np.zeros((T, 4, 6))
    cols[:, 1, 2] = -0.0
    cols[:, :, 3] = np.nan
    cols[:, 3, 3] = np.inf
    cols[:, :, 4] = np.arange(4) * 0.1
    return [TrajectoryTrace(f"r{r}", TraceRecords(cols, r), np.zeros(2))
            for r in range(4)]


def real_traces(scheduler="deterministic-ddim", n=3):
    be, _ = backend(T=12)
    batch = run_batch(be, [BatchItem("a"), BatchItem("b", ATTRACTOR, TARGET)],
                      small_cfg(T=12, scheduler=scheduler), n)
    return [r.trace for r in batch]


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

    @pytest.mark.parametrize("case", ["real-ddim", "real-ddpm", "special", "repeated",
                                      "empty", "one-line-chunks"])
    def test_bytes_and_reading_equal_the_reference(self, tmp_path, monkeypatch, case):
        if case == "one-line-chunks":  # every record is a chunk of its own
            monkeypatch.setattr(dcr.sampling, "_READ_CHARS", 1)
        traces = {"real-ddim": lambda: real_traces(),
                  "real-ddpm": lambda: real_traces("ancestral-ddpm"),
                  "special": hand_built_traces,
                  "repeated": repeated_column_traces,
                  "empty": lambda: [],
                  "one-line-chunks": lambda: real_traces() + hand_built_traces()}[case]()
        ref = 'manifest "x"\\.json' if case == "special" else None
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
        write_traces_jsonl(traces, ours, manifest_ref=ref)
        oracles.write_traces_jsonl(traces, theirs, manifest_ref=ref)
        assert ours.read_bytes() == theirs.read_bytes()
        if case == "special":
            text = ours.read_text(encoding="utf-8")
            assert all(s in text for s in ("NaN", "-Infinity", "-0.0", "5e-324"))
        # repr, not ==, so NaN compares equal to NaN and -0.0 differs from 0.0
        assert repr(read_traces_jsonl(ours)) == repr(oracles.read_traces_jsonl(ours))

    def test_export_builds_no_trace_record(self, tmp_path, monkeypatch):
        traces = real_traces()
        want = tmp_path / "want.jsonl"
        write_traces_jsonl(traces, want)

        def no_records(*args, **kwargs):
            raise AssertionError("export built a TraceRecord")

        monkeypatch.setattr(dcr.sampling, "TraceRecord", no_records)
        got = tmp_path / "got.jsonl"
        write_traces_jsonl(traces, got)
        assert got.read_bytes() == want.read_bytes()

    def test_empty_file_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty.jsonl"):
            read_traces_jsonl(path)

    def test_foreign_schema_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"schema": "other@9", "manifest": None}) + "\n")
        with pytest.raises(ValidationError, match="foreign.jsonl"):
            read_traces_jsonl(path)

    @pytest.mark.parametrize("bad, error", [
        ('{"trajectory_id": "a/0", "step": 3, "alpha_t": 0.5, "lambda_t"', "Expecting ':'"),
        ("", "Expecting value"),
        ('{"trajectory_id": "a/0", "final": [0.0]}, {"step": 1}', "Extra data")],
        ids=["truncated", "blank", "two-records"])
    @pytest.mark.parametrize("chars", [1, None])
    def test_a_bad_line_is_rejected_by_file_and_line(self, tmp_path, monkeypatch, bad,
                                                     error, chars):
        # truncated, blank, and two records on one line, each at line 9: in the
        # eighth chunk at one line per chunk, in the first at the default size
        if chars:
            monkeypatch.setattr(dcr.sampling, "_READ_CHARS", chars)
        path = tmp_path / "bad.jsonl"
        write_traces_jsonl(real_traces(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[8] = bad
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=f"bad.jsonl: line 9 is not one JSON record: {error}"):
            read_traces_jsonl(path)

    def test_records_are_split_on_newlines_only(self, tmp_path):
        # str.splitlines also splits on U+2028, U+2029 and U+0085, which JSON
        # allows raw inside strings; a writer other than write_traces_jsonl
        # (ensure_ascii=False) leaves them unescaped. The last line ends in
        # "\r\n".
        odd = "a\u2028b\x85c\u2029d"
        path = tmp_path / "raw.jsonl"
        header = {"schema": dcr.sampling.TRACE_SCHEMA, "manifest": odd}
        record = {"trajectory_id": odd, "final": [0.0]}
        path.write_bytes("\n".join(json.dumps(doc, ensure_ascii=False) for doc in
                                   (header, record, record)).encode("utf-8")
                         + b"\r\n")
        assert read_traces_jsonl(path) == (header, [record, record])

    def test_the_reader_holds_a_bounded_share_of_the_file(self, tmp_path):
        # the records are the result; beyond them the reader holds one chunk,
        # not the file's text, its lines and their joined copy (2.4x the file)
        cols = np.random.default_rng(0).standard_normal((100, 80, 6))
        traces = [TrajectoryTrace(f"t/{r}", TraceRecords(cols, r), cols[-1, r, :2])
                  for r in range(80)]
        path = tmp_path / "big.jsonl"
        write_traces_jsonl(traces, path)
        size = path.stat().st_size
        assert size >= 1 << 20
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = read_traces_jsonl(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result[1]) == 80 * 101
        assert peak - retained < size / 4


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        s1 = derive_seed(1, "item", 0)
        assert s1 == derive_seed(1, "item", 0)
        assert s1 != derive_seed(1, "item", 1)
        assert s1 != derive_seed(2, "item", 0)
        assert 0 <= s1 < 2 ** 63


class TestSharedGenerators:
    """run_batch builds one Generator per (item_id, replicate); the rows that
    share it share its draws."""

    ITEMS = [BatchItem(item_id, variant=v) for item_id in ("a", "b") for v in Variant]

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_shared_rows_draw_what_their_own_generator_draws(self, scheduler):
        T, seed = 12, 9
        be, _ = backend(T)
        cfg = small_cfg(T=T, seed=seed, scheduler=scheduler)
        batch = run_batch(be, self.ITEMS, cfg, 2)
        for item, res in zip([i for i in self.ITEMS for _ in range(2)], batch):
            rng = np.random.default_rng(derive_seed(seed, res.item_id, res.replicate))
            x, trace = run_sampling(be, (TARGET, ATTRACTOR),
                                    dataclasses.replace(cfg, variant=item.variant),
                                    rng=rng, trajectory_id=res.trace.trajectory_id)
            assert res.final.tobytes() == x.tobytes()
            assert record_bytes(res.trace) == record_bytes(trace)

    def test_rows_of_distinct_keys_never_share_draws(self, monkeypatch):
        be, _ = backend(T=6)
        seen = []
        sample_rows = dcr.sampling._sample_rows

        def spy(backend, rows, cfg, rngs, trajectory_ids):
            seen.extend(zip(rows, rngs))
            return sample_rows(backend, rows, cfg, rngs, trajectory_ids)

        monkeypatch.setattr(dcr.sampling, "_sample_rows", spy)
        batch = run_batch(be, self.ITEMS, small_cfg(T=6, scheduler="ancestral-ddpm"), 3)
        for (item, rep), rng in seen:
            for (other, other_rep), other_rng in seen:
                same_key = (item.item_id, rep) == (other.item_id, other_rep)
                assert (rng is other_rng) == same_key
        # the initial latents, read back from the step-0 x_mean, follow suit
        first = {}
        for res in batch:
            first.setdefault((res.item_id, res.replicate), set()).add(
                res.trace.records[0].x_mean)
        assert all(len(means) == 1 for means in first.values())
        assert len({m for means in first.values() for m in means}) == len(first) == 6

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_run_sampling_consumes_the_callers_generator_as_before(self, kind):
        # one (T-1, *latent_shape) draw under the ancestral scheduler, the
        # initial latent alone under the deterministic one
        T = 10
        be, _ = backend(T)
        rng = np.random.default_rng(21)
        run_sampling(be, (TARGET, ATTRACTOR), small_cfg(T=T, scheduler=kind), rng=rng)
        ref = np.random.default_rng(21)
        ref.standard_normal((T - 1 if kind is SchedulerKind.ANCESTRAL_DDPM else 1, 2))
        assert rng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()

    def test_the_ablation_shape_builds_one_generator_per_replicate(self, monkeypatch):
        # six variants of one item, n replicates each: n generators, not 6n
        n, built = 5, []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        be, _ = backend(T=4)
        run_batch(be, [BatchItem("abl", variant=v) for v in Variant],
                  small_cfg(T=4, scheduler="ancestral-ddpm"), n)
        assert sorted(built) == sorted(derive_seed(7, "abl", rep) for rep in range(n))


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

    @pytest.mark.parametrize("scheduler", [k.value for k in SchedulerKind])
    def test_the_loop_steps_through_the_module_names(self, monkeypatch, scheduler):
        # perfbench/layers.py times schedule_alpha and scheduler_step by
        # wrapping their dcr.sampling names; a loop that reached them some
        # other way would hide those layers
        T, calls = 12, {"schedule_alpha": 0, "scheduler_step": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(dcr.sampling, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(dcr.sampling, name, counting)
        be, _ = backend(T)
        cfg = dataclasses.replace(small_cfg(T=T, scheduler=scheduler), trace=False)
        run_batch(be, [BatchItem("calls", variant=v) for v in Variant], cfg, 4)
        assert calls == {"schedule_alpha": T, "scheduler_step": T - 1}

    def test_all_variants_in_one_batch_call_each_channel_once_per_step(self):
        # the ablation shape: six variants of one item; per-variant batches
        # would make 15 calls per step
        T = 12
        be = CountingBackend(default_scenario(), cosine_schedule(T))
        run_batch(be, [BatchItem("calls", variant=v) for v in Variant],
                  small_cfg(T=T), 4)
        assert be.calls == {"uncond": T, "target": T, "attractor": T}
        # all three channels of a step come from one call
        assert be.channel_calls == T
