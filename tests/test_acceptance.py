"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Quantitative collapse criteria run the default scenario with its calibrated
guidance preset over the ancestral scheduler with shared per-trajectory
seeds; the plain-CFG baseline is checked against the pinned value computed
by the independent scalar oracle (tests/oracles.py) before the build.

Criterion 6 asserts the ablation ordering that the exact Gaussian-mixture
denoiser determines: the full method collapses less than no-attractor-prompt
and no-repulsion, and no-schedule (always-on repulsion) collapses less than
the full method, because unscheduled repulsion damages nothing on this
backend; the test checks that premise on the shared-seed finals. The paper's
video-scale ordering is printed as context only.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dcr.bench import (Category, load_fixture_suite, load_suite,
                       render_attractor_template)
from dcr.errors import VerdictError
from dcr.guidance import (GuidanceConfig, GuidanceUpdate, NoisePrediction,
                          StepPosition, attractor_drift, attractor_drift_expanded,
                          cfg_update, corrected_update, dcr_guided_prediction,
                          probe_prediction, repulsion_coefficient, schedule_alpha,
                          target_prediction)
from dcr.judge import EncodedFrame, JudgeClientConfig, JudgeRequest, judge
from dcr.metrics import (EXTERNAL_REFERENCE_ROWS, ItemRow, aggregate_report,
                         ccs, cvr, toy_collapse_fraction, wilson_interval)
from dcr.sampling import (BatchItem, SamplerConfig, SchedulerKind, Variant,
                          run_batch, run_sampling, scheduler_step)
from dcr.toy import (ATTRACTOR, TARGET, UNCOND, ToyDenoiser, cosine_schedule,
                     default_scenario, epsilon_prediction, mode_assignment,
                     sample_channel)

# Pinned regression reference: plain-CFG collapse fraction on the default
# scenario, computed by the independent scalar-loop Monte-Carlo oracle
# (python tests/oracles.py) before the build.
ORACLE_PLAIN_CFG_COLLAPSE = 0.133000
ORACLE_N = 4000

COLLAPSE_N = 3000
BASE_SEED = 20260808


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _rand_triples(n: int, seed: int):
    """Random branch triples over dims 2..4096. Half use an independent
    attractor branch (anti-aligned drift, exercising rectification); half use
    an attractor branch correlated with the text branch, which puts the drift
    in positive alignment with the update as on a real backbone."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        dim = int(np.exp(rng.uniform(np.log(2), np.log(4096))))
        dim = max(2, min(4096, dim))
        u = rng.standard_normal(dim)
        t = rng.standard_normal(dim)
        if k % 2 == 0:
            a = rng.standard_normal(dim)
        else:
            a = u + 5.0 * (t - u) + 0.3 * rng.standard_normal(dim)
        yield (NoisePrediction.from_array(u), NoisePrediction.from_array(t),
               NoisePrediction.from_array(a))


def test_criterion_1_equation_fidelity():
    t0 = time.time()
    w, w_attr = 6.0, 3.0
    cfg = GuidanceConfig(w=w, w_attr=w_attr, eta=1.0)
    n_pos = n_neg = 0
    for u, t, a in _rand_triples(1000, seed=12345):
        delta = cfg_update(u, t, w)
        drift_branches = attractor_drift(
            probe_prediction(u, a, w_attr), target_prediction(u, delta))
        drift_expanded = attractor_drift_expanded(u, t, a, w, w_attr)
        scale = np.linalg.norm(drift_expanded.values)
        # (a) the two drift forms agree to 1e-12 relative
        assert np.max(np.abs(drift_branches.values - drift_expanded.values)) \
            <= 1e-12 * max(scale, 1.0)
        drift = drift_expanded
        diag = repulsion_coefficient(drift, delta, 1.0, cfg)
        out = corrected_update(delta, diag.lambda_t, drift)
        # (b) drift-orthogonal component of the update is preserved
        ah = drift.values / np.linalg.norm(drift.values)
        perp_before = delta.values - (delta.values @ ah) * ah
        perp_after = out.values - (out.values @ ah) * ah
        assert np.max(np.abs(perp_after - perp_before)) \
            <= 1e-12 * max(np.linalg.norm(perp_before), 1.0)
        if diag.s_t > 0:
            # (c) residual alignment closed form at alpha*eta = 1
            n_pos += 1
            got = float(out.values @ drift.values)
            want = diag.s_t * cfg.eps_stab / diag.n_t
            assert abs(got - want) <= 1e-9
        else:
            # (d) rectified: bitwise passthrough
            n_neg += 1
            assert out.values.tobytes() == delta.values.tobytes()
    elapsed = time.time() - t0
    _report(1, "equation fidelity", n_pos > 100 and n_neg > 100 and elapsed < 10.0,
            f"{n_pos} aligned / {n_neg} rectified triples in {elapsed:.1f}s")


def test_criterion_2_schedule_suite():
    t0 = time.time()
    ok = True
    for r_s, r_e, gamma in ((0.2, 0.8, 2.0), (0.1, 0.7, 2.0), (0.25, 0.75, 1.0)):
        cfg = GuidanceConfig(w=6.0, r_s=r_s, r_e=r_e, gamma=gamma)
        T = 101
        vals = [schedule_alpha(StepPosition(i, T), cfg) for i in range(T)]
        pis = [i / (T - 1) for i in range(T)]
        ok &= all(v == 0.0 for v, pi in zip(vals, pis) if pi < r_s or pi > r_e)
        inside = [v for v, pi in zip(vals, pis) if r_s <= pi <= r_e]
        ok &= all(b >= a for a, b in zip(inside, inside[1:]))
    # alpha = 1 exactly at pi == r_e
    ok &= schedule_alpha(StepPosition(75, 101),
                         GuidanceConfig(w=6.0, r_s=0.25, r_e=0.75)) == 1.0
    # gamma = 2 arithmetic case: pi-tilde = 0.5 -> 0.25 exactly
    ok &= schedule_alpha(StepPosition(50, 101),
                         GuidanceConfig(w=6.0, r_s=0.0, r_e=1.0)) == 0.25
    elapsed = time.time() - t0
    _report(2, "schedule suite", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _plain_prediction(backend, x, t, w):
    e_u = backend.epsilon(x, t, UNCOND)
    e_t = backend.epsilon(x, t, TARGET)
    return target_prediction(e_u, cfg_update(e_u, e_t, w))


def test_criterion_3_gate_equivalences():
    t0 = time.time()
    sc = default_scenario()
    T = 100
    be = ToyDenoiser(sc, cosine_schedule(T))
    g = sc.guidance

    def run_variant(variant, w_attr):
        cfg = SamplerConfig(
            T=T, guidance=GuidanceConfig(w=g.w, w_attr=w_attr, eta=g.eta,
                                         gamma=g.gamma, r_s=g.r_s, r_e=g.r_e),
            variant=variant, scheduler_kind=SchedulerKind.DETERMINISTIC_DDIM,
            seed=BASE_SEED)
        return run_batch(be, [BatchItem("gate")], cfg, 50)

    plain = run_variant(Variant.PLAIN_CFG, g.w_attr)
    full0 = run_variant(Variant.FULL_DCR, 0.0)
    norep = run_variant(Variant.NO_REPULSION, g.w_attr)
    bit_a = all(p.final.tobytes() == f.final.tobytes()
                for p, f in zip(plain, full0))
    bit_b = all(p.final.tobytes() == f.final.tobytes()
                for p, f in zip(plain, norep))

    # outside-interval steps: the full-DCR prediction equals the plain-CFG
    # prediction bit-for-bit at the same state
    cfg = SamplerConfig(T=T, guidance=g, variant=Variant.FULL_DCR,
                        scheduler_kind=SchedulerKind.DETERMINISTIC_DDIM,
                        seed=BASE_SEED)
    bit_c = True
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(2)
        for i in range(T):
            t = T - 1 - i
            pos = StepPosition(i, T)
            e_u = be.epsilon(x, t, UNCOND)
            e_t = be.epsilon(x, t, TARGET)
            e_a = be.epsilon(x, t, ATTRACTOR)
            star, diag = dcr_guided_prediction(e_u, e_t, e_a, pos, g)
            pi = pos.progress
            if pi < g.r_s or pi > g.r_e:
                ref = _plain_prediction(be, x, t, g.w)
                bit_c &= star.values.tobytes() == ref.values.tobytes()
            if t >= 1:
                x = scheduler_step(star.values, t, x, be.schedule,
                                   SchedulerKind.DETERMINISTIC_DDIM)
    elapsed = time.time() - t0
    _report(3, "gate equivalences",
            bit_a and bit_b and bit_c and elapsed < 30.0,
            f"w_attr=0 bitwise: {bit_a}; no-repulsion bitwise: {bit_b}; "
            f"outside-interval bitwise: {bit_c}; {elapsed:.1f}s")


def _mc_eps_estimate(x_t, t, sched, scenario, weights, n, rng):
    """Forward-simulation oracle for the optimal prediction: draw x0 from the
    channel mixture and weight by the exact noising kernel (independent of the
    library's closed-form posterior)."""
    ab = float(sched.alpha_bar[t])
    ks = rng.choice(scenario.base.n_components, size=n, p=weights)
    x0 = scenario.base.means[ks] + scenario.base.sigma0 * rng.standard_normal(
        (n, scenario.dim))
    d2 = np.sum((x_t - np.sqrt(ab) * x0) ** 2, axis=1)
    logw = -d2 / (2.0 * (1.0 - ab))
    logw -= logw.max()
    w = np.exp(logw)
    den = w.sum()
    m_hat = (w[:, None] * x0).sum(axis=0) / den
    se_m = np.sqrt(np.sum((w[:, None] * (x0 - m_hat)) ** 2, axis=0)) / den
    eps_hat = (x_t - np.sqrt(ab) * m_hat) / np.sqrt(1.0 - ab)
    se_eps = np.sqrt(ab) / np.sqrt(1.0 - ab) * se_m
    return eps_hat, se_eps


def test_criterion_4_toy_denoiser_oracle():
    t0 = time.time()
    sc = default_scenario()
    sched = cosine_schedule(sc.steps)
    tw = sc.channel(TARGET).weights_for(sc.base)
    rng = np.random.default_rng(101)
    worst_z = 0.0
    for _ in range(20):
        t = int(rng.integers(20, 86))
        x0 = sample_channel(sc, TARGET, 1, rng)[0]
        ab = float(sched.alpha_bar[t])
        x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * rng.standard_normal(2)
        eps = epsilon_prediction(x_t, t, sc.channel(TARGET), sc, sched).values
        eps_mc, se = _mc_eps_estimate(x_t, t, sched, sc, tw, 1_000_000, rng)
        z = np.abs(eps - eps_mc) / se
        worst_z = max(worst_z, float(z.max()))
        assert np.all(z <= 3.0)

    # distributional check: deterministic integration of the exact field
    T = 200
    sched200 = cosine_schedule(T)
    rng_ks = np.random.default_rng(11)
    x = rng_ks.standard_normal((5000, 2))
    for t in range(T - 1, 0, -1):
        eps = epsilon_prediction(x, t, sc.channel(TARGET), sc, sched200)
        x = scheduler_step(eps.values, t, x, sched200,
                           SchedulerKind.DETERMINISTIC_DDIM)
    direct = sample_channel(sc, TARGET, 5000, np.random.default_rng(12))
    p_values = [stats.ks_2samp(x[:, j], direct[:, j]).pvalue for j in range(2)]
    elapsed = time.time() - t0
    _report(4, "toy denoiser oracle",
            all(p > 1e-3 for p in p_values) and elapsed < 300.0,
            f"worst |z|={worst_z:.2f} of 3.0; KS p={p_values[0]:.3f}/"
            f"{p_values[1]:.3f}; {elapsed:.0f}s")


@pytest.fixture(scope="module")
def collapse_runs():
    """Shared-seed runs of all ablation variants on the default scenario.

    Maps each variant to (collapse fraction, Wilson interval); "finals" maps
    each variant to its (COLLAPSE_N, d) final latents. Row k is replicate k
    in every variant, so rows share their seed across variants.
    """
    t0 = time.time()
    sc = default_scenario()
    be = ToyDenoiser(sc, cosine_schedule(sc.steps))
    out = {"finals": {}}
    for variant in (Variant.PLAIN_CFG, Variant.FULL_DCR,
                    Variant.NO_ATTRACTOR_PROMPT, Variant.NO_REPULSION,
                    Variant.NO_SCHEDULE):
        cfg = SamplerConfig(T=sc.steps, guidance=sc.guidance, variant=variant,
                            scheduler_kind=SchedulerKind.ANCESTRAL_DDPM,
                            seed=BASE_SEED)
        results = run_batch(be, [BatchItem("acceptance")], cfg, COLLAPSE_N)
        finals = np.asarray([r.final for r in results if r.final is not None])
        assert len(finals) == COLLAPSE_N
        frac = toy_collapse_fraction(finals, sc)
        k = int(round(frac * len(finals)))
        out[variant] = (frac, wilson_interval(k, len(finals)))
        out["finals"][variant] = finals
    out["elapsed_s"] = time.time() - t0
    return out


def test_criterion_5_collapse_reduction(collapse_runs):
    plain, (plain_lo, plain_hi) = collapse_runs[Variant.PLAIN_CFG]
    full, (full_lo, full_hi) = collapse_runs[Variant.FULL_DCR]
    # regression reference: the library baseline agrees with the pinned
    # pre-build oracle value (Wilson intervals overlap)
    o_lo, o_hi = wilson_interval(int(round(ORACLE_PLAIN_CFG_COLLAPSE * ORACLE_N)),
                                 ORACLE_N)
    oracle_ok = plain_lo <= o_hi and o_lo <= plain_hi
    reduced = full < plain and full_hi < plain_lo
    # the shared fixture runs all five variants; the two this criterion needs
    # account for well under the stated 10-minute budget
    in_budget = collapse_runs["elapsed_s"] < 600.0
    _report(5, "collapse reduction", oracle_ok and reduced and in_budget,
            f"plain={plain:.4f} [{plain_lo:.4f},{plain_hi:.4f}] "
            f"(oracle {ORACLE_PLAIN_CFG_COLLAPSE:.4f} [{o_lo:.4f},{o_hi:.4f}]), "
            f"full={full:.4f} [{full_lo:.4f},{full_hi:.4f}], n={COLLAPSE_N}, "
            f"all-variant runtime {collapse_runs['elapsed_s']:.0f}s")


def test_criterion_6_ablation_ordering(collapse_runs):
    """Directional ablation ordering on the toy collapse fraction.

    NoAttractorPrompt and NoRepulsion reduce to plain CFG bitwise, so the
    full method must collapse less than either, with disjoint Wilson
    intervals: ``full <= frac and full_hi < lo``.

    NoSchedule is asserted in the mirrored direction, ``ns <= full and
    ns_hi < full_lo``, which is the ordering this backend determines.
    NoSchedule is ``alpha_t = 1`` at every step with ``eta`` unchanged, so it
    repels at full strength where the schedule ramps or gates repulsion off.
    On video backbones that early repulsion corrupts global structure that
    later steps cannot repair; the exact Gaussian-mixture denoiser has no
    such damage, so the extra repulsion only lowers collapse. The test checks
    that premise on the shared-seed finals: no trajectory that plain CFG
    lands on the rare mode leaves it under NoSchedule or full DCR, and the
    detail reports how many there are and how far the two variants move
    them on average.

    The paper's video-scale pair (CVR 0.3100 for the full method, 0.3550 for
    NoSchedule, from EXTERNAL_REFERENCE_ROWS) needs a learned backbone. It
    is printed in the PASS/FAIL detail as context and is not recomputed here.
    """
    full, (full_lo, full_hi) = collapse_runs[Variant.FULL_DCR]
    legs = {}
    for variant in (Variant.NO_ATTRACTOR_PROMPT, Variant.NO_REPULSION):
        frac, (lo, hi) = collapse_runs[variant]
        legs[variant.value] = full <= frac and full_hi < lo
    ns, (ns_lo, ns_hi) = collapse_runs[Variant.NO_SCHEDULE]
    legs[Variant.NO_SCHEDULE.value] = ns <= full and ns_hi < full_lo

    # premise: repulsion, scheduled or not, never moves a rare-mode landing
    sc = default_scenario()
    finals = collapse_runs["finals"]
    plain = finals[Variant.PLAIN_CFG]
    on_rare = mode_assignment(plain, sc) == sc.rare_index
    left, moved = {}, {}
    for variant in (Variant.FULL_DCR, Variant.NO_SCHEDULE):
        x = finals[variant][on_rare]
        left[variant] = int(np.sum(mode_assignment(x, sc) != sc.rare_index))
        moved[variant] = float(np.mean(np.linalg.norm(x - plain[on_rare], axis=1)))
    legs["rare-mode-kept"] = bool(on_rare.any()) and not any(left.values())

    # CVR is the last column of the external reference rows
    paper_full = EXTERNAL_REFERENCE_ROWS["ours"][-1]
    paper_ns = EXTERNAL_REFERENCE_ROWS[Variant.NO_SCHEDULE.value][-1]
    detail = "; ".join(
        f"{v}={'ok' if ok else 'VIOLATED'}" for v, ok in legs.items())
    detail += (f"; full={full:.4f} [{full_lo:.4f},{full_hi:.4f}], "
               f"no-schedule={ns:.4f} [{ns_lo:.4f},{ns_hi:.4f}]; "
               f"plain-CFG rare-mode landings={int(on_rare.sum())}, left "
               f"full/no-schedule={left[Variant.FULL_DCR]}/"
               f"{left[Variant.NO_SCHEDULE]}, mean displacement "
               f"{moved[Variant.FULL_DCR]:.1e}/{moved[Variant.NO_SCHEDULE]:.1e} "
               f"(sigma0={sc.base.sigma0:.2f}); paper video CVR (context, not "
               f"recomputed) full={paper_full:.4f}, no-schedule={paper_ns:.4f}")
    _report(6, "ablation ordering", all(legs.values()), detail)


def test_criterion_7_non_collinearity():
    sc = default_scenario()
    be = ToyDenoiser(sc, cosine_schedule(sc.steps))
    cfg = SamplerConfig(T=sc.steps, guidance=sc.guidance,
                        variant=Variant.FULL_DCR,
                        scheduler_kind=SchedulerKind.ANCESTRAL_DDPM,
                        seed=BASE_SEED)
    medians = []
    for seed in (3, 5, 9):
        _, trace = run_sampling(be, (TARGET, ATTRACTOR), cfg,
                                rng=np.random.default_rng(seed))
        medians.append(float(np.median([r.residual for r in trace.records])))
    distinct_ok = all(m > 0.05 for m in medians)

    worst = 0.0
    for seed in (3, 5):
        _, trace = run_sampling(be, (TARGET, TARGET), cfg,
                                rng=np.random.default_rng(seed))
        worst = max(worst, max(r.residual for r in trace.records))
    identical_ok = worst < 1e-10
    _report(7, "non-collinearity diagnostic", distinct_ok and identical_ok,
            f"distinct-channel medians={[round(m, 3) for m in medians]} (>0.05); "
            f"identical-channel max residual={worst:.2e} (<1e-10)")


def test_criterion_8_metric_aggregation_exactness():
    ok = abs(ccs([5, 5, 4, 2]) - 4.0) <= 1e-12
    ok &= abs(ccs([3]) - 3.0) <= 1e-12
    ok &= abs(cvr([True, False, False, True]) - 0.5) <= 1e-12
    rows = [ItemRow(item_id="a", category="ENV", judge_score=5, collapsed=False),
            ItemRow(item_id="b", category="ENV", judge_score=3, collapsed=True),
            ItemRow(item_id="c", category="MAT", judge_score=2, collapsed=True),
            ItemRow(item_id="d", category="MAT", judge_score=4, collapsed=True)]
    rep = aggregate_report(rows, by_category=True)
    ok &= abs(rep.overall.mean["ccs"] - 3.5) <= 1e-12
    ok &= abs(rep.overall.sd["ccs"] - math.sqrt(5.0 / 3.0)) <= 1e-12
    ok &= abs(rep.overall.mean["cvr"] - 0.75) <= 1e-12
    ok &= abs(rep.overall.sd["cvr"] - 0.5) <= 1e-12
    ok &= abs(rep.by_category["ENV"].mean["ccs"] - 4.0) <= 1e-12
    # score-3 retention and no-exclusion: every row participates
    threes = [ItemRow(item_id=str(i), judge_score=3) for i in range(7)]
    rep3 = aggregate_report(threes)
    ok &= rep3.n == 7 and abs(rep3.overall.mean["ccs"] - 3.0) <= 1e-12
    _report(8, "metric aggregation exactness", bool(ok), "fixtures at 1e-12")


def test_criterion_9_bench_judge_plumbing(tmp_path):
    suite = load_fixture_suite()
    ok = len(suite.items) == 16
    counts = suite.counts_by_category()
    ok &= all(counts[c] == 2 for c in Category)

    # canonical-count rule
    import json
    cats = [c.value for c in Category]
    items = [{"id": f"{cat}-{i}", "category": cat, "prompt": f"p{i}",
              "attractor_prompt": f"q{i}",
              "factors": [{"name": "f", "allowed": ["a"]}]}
             for cat in cats for i in range(50)]
    good = tmp_path / "canon.json"
    good.write_text(json.dumps(items))
    load_suite(good, canonical=True)
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(items[:-1]))
    try:
        load_suite(bad, canonical=True)
        ok = False
    except Exception:
        pass

    # mocked judge round trip: every verdict maps to one remote response
    sent = []

    def transport(payload):
        sent.append(payload)
        return f"score: {1 + len(sent) % 5}, collapsed: {'true' if len(sent) % 2 else 'false'}"

    cfg = JudgeClientConfig(endpoint="https://judge.invalid", transport=transport)
    frames = (EncodedFrame(data_b64="Zg==", width=8, height=8,
                           source_width=64, source_height=64),)
    verdicts = []
    for item in suite.items[:6]:
        req = JudgeRequest(prompt_p=item.prompt,
                           factors=tuple(fc.name for fc in item.factors),
                           attractor=item.attractor_prompt, frames=frames)
        verdicts.append(judge(req, cfg))
    ok &= len(verdicts) == 6 and len(sent) == 6
    ok &= all(1 <= v.score <= 5 for v in verdicts)
    # parse failures raise rather than synthesizing a verdict
    def broken(payload):
        return "no trailer here"
    try:
        judge(JudgeRequest(prompt_p="p", factors=("f",), attractor="q",
                           frames=frames),
              JudgeClientConfig(endpoint="x://y", transport=broken))
        ok = False
    except VerdictError:
        pass

    # byte-stable template with the verbatim instruction
    a = render_attractor_template("a snowy beach with waves")
    b = render_attractor_template("a snowy beach with waves")
    ok &= a.encode() == b.encode()
    ok &= "generate a single alternative prompt" in a
    _report(9, "bench/judge plumbing", bool(ok),
            "16-pair fixture, 400-count rule, mocked judge round trip, template")
