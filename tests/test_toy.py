import math

import numpy as np
import pytest

from dcr.errors import ValidationError
from dcr.guidance import GuidanceConfig
from dcr.toy import (ATTRACTOR, TARGET, UNCOND, BiasScenario, MixtureSpec,
                     NoiseScheduleSpec, PromptChannel, ToyDenoiser,
                     cosine_schedule, default_scenario, epsilon_prediction,
                     forward_noising, load_scenario, mode_assignment,
                     posterior_mean, responsibilities, sample_channel,
                     save_scenario)
from oracles import weighted_posterior_mean_mc


def two_mode(sigma0=0.5, w0=0.7):
    return MixtureSpec(means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
                       weights=np.array([w0, 1.0 - w0]), sigma0=sigma0)


def scenario_of(base, target=(0.35, 0.65), attr=None, dom=0, rare=1):
    k = base.n_components
    tw = np.zeros(k)
    tw[dom], tw[rare] = target[0], target[1]
    aw = np.zeros(k)
    aw[dom] = 1.0
    if attr is not None:
        aw = np.asarray(attr, dtype=float)
    return BiasScenario(
        base=base, dominant_index=dom, rare_index=rare,
        pi_major=float(base.weights[dom]), leakage_beta=float(tw[dom]),
        channels={UNCOND: PromptChannel(UNCOND),
                  TARGET: PromptChannel(TARGET, tw),
                  ATTRACTOR: PromptChannel(ATTRACTOR, aw)})


class TestSpecs:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValidationError):
            MixtureSpec(means=np.zeros((2, 2)) + [[0, 0], [1, 1]],
                        weights=np.array([0.5, 0.6]), sigma0=1.0)

    def test_needs_two_components(self):
        with pytest.raises(ValidationError):
            MixtureSpec(means=np.array([[0.0, 0.0]]), weights=np.array([1.0]),
                        sigma0=1.0)

    def test_channel_override_sums_to_one(self):
        with pytest.raises(ValidationError):
            PromptChannel("x", np.array([0.5, 0.6]))

    def test_schedule_monotone(self):
        with pytest.raises(ValidationError):
            NoiseScheduleSpec(T=3, alpha_bar=np.array([0.9, 0.95, 0.5]))
        with pytest.raises(ValidationError):
            NoiseScheduleSpec(T=3, alpha_bar=np.array([1.2, 0.9, 0.5]))

    def test_cosine_schedule_in_open_unit_interval(self):
        sched = cosine_schedule(100)
        assert sched.alpha_bar[0] < 1.0 and sched.alpha_bar[0] > 0.999
        assert sched.alpha_bar[-1] > 0.0 and sched.alpha_bar[-1] < 1e-3

    def test_bias_scenario_invariants(self):
        base = two_mode(w0=0.9)
        sc = scenario_of(base)
        assert sc.pi_major == 0.9
        # Target channel must match the leakage split
        bad_target = np.array([0.5, 0.5])
        with pytest.raises(ValidationError):
            BiasScenario(base=base, dominant_index=0, rare_index=1,
                         pi_major=0.9, leakage_beta=0.35,
                         channels={UNCOND: PromptChannel(UNCOND),
                                   TARGET: PromptChannel(TARGET, bad_target),
                                   ATTRACTOR: PromptChannel(ATTRACTOR,
                                                            np.array([1.0, 0.0]))})
        # Attractor channel must carry at least pi_major on the dominant mode
        with pytest.raises(ValidationError):
            scenario_of(base, attr=(0.5, 0.5))


class TestPosteriorMean:
    def test_single_component_matches_gaussian_formula(self):
        base = two_mode(sigma0=0.7)
        sc = scenario_of(base)
        sched = cosine_schedule(50)
        only1 = PromptChannel("one", np.array([0.0, 1.0]))
        t = 25
        ab = sched.alpha_bar[t]
        x = np.array([0.4, -1.3])
        got = posterior_mean(x, t, only1, sc, sched)
        m = base.means[1]
        v = ab * base.sigma0 ** 2 + (1 - ab)
        want = m + (np.sqrt(ab) * base.sigma0 ** 2 / v) * (x - np.sqrt(ab) * m)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_symmetric_midpoint(self):
        base = two_mode(w0=0.7)
        sc = scenario_of(base, target=(0.35, 0.65))
        sched = cosine_schedule(50)
        x = np.array([0.0, 0.7])  # equidistant from (-3,0) and (3,0)
        pm = posterior_mean(x, 20, PromptChannel("even", np.array([0.5, 0.5])),
                            sc, sched)
        assert abs(pm[0]) < 1e-12  # lies on the perpendicular bisector

    def test_responsibilities_sum_to_one(self):
        sc = default_scenario()
        sched = cosine_schedule(sc.steps)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 2)) * 3
        for t in (1, 30, 70, 99):
            r = responsibilities(x, t, sc.channel(TARGET), sc, sched)
            np.testing.assert_allclose(r.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t,point", [(60, (0.5, 0.3)), (40, (-0.8, 1.0))])
    def test_matches_forward_simulation_oracle(self, t, point):
        sc = default_scenario()
        sched = cosine_schedule(sc.steps)
        ab = float(sched.alpha_bar[t])
        x = np.array(point)
        got = posterior_mean(x, t, sc.channel(TARGET), sc, sched)
        est, se = weighted_posterior_mean_mc(list(x), ab, [0.35, 0.65, 0.0],
                                             n_samples=200_000, seed=99)
        for j in range(2):
            assert abs(got[j] - est[j]) <= 3.0 * se[j]


class TestEpsilonPrediction:
    def test_on_manifold_point_gives_zero(self):
        base = MixtureSpec(means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
                           weights=np.array([0.7, 0.3]), sigma0=1e-6)
        sc = scenario_of(base)
        sched = cosine_schedule(50)
        t = 10
        x = np.sqrt(sched.alpha_bar[t]) * base.means[1]
        only1 = PromptChannel("one", np.array([0.0, 1.0]))
        eps = epsilon_prediction(x, t, only1, sc, sched)
        assert np.all(np.abs(eps.values) < 1e-4)

    def test_channels_differ(self):
        sc = default_scenario()
        sched = cosine_schedule(sc.steps)
        x = np.array([0.5, 0.5])
        e_u = epsilon_prediction(x, 50, sc.channel(UNCOND), sc, sched)
        e_t = epsilon_prediction(x, 50, sc.channel(TARGET), sc, sched)
        assert not np.array_equal(e_u.values, e_t.values)

    def test_clean_step_guard(self):
        base = two_mode()
        sc = scenario_of(base)
        sched = NoiseScheduleSpec(T=2, alpha_bar=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            epsilon_prediction(np.array([0.0, 0.0]), 0, sc.channel(TARGET), sc, sched)

    def test_mse_optimality_beats_constant_predictor(self):
        sc = default_scenario()
        sched = cosine_schedule(sc.steps)
        rng = np.random.default_rng(5)
        t = 55
        n = 20_000
        x0 = sample_channel(sc, TARGET, n, rng)
        z = rng.standard_normal((n, 2))
        ab = sched.alpha_bar[t]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * z
        eps_hat = epsilon_prediction(x_t, t, sc.channel(TARGET), sc, sched)
        err = np.mean((eps_hat.reshape() - z) ** 2)
        const = np.mean(z ** 2)  # zero predictor = best constant (E[z] = 0)
        assert err < const


class TestForwardNoising:
    def test_near_clean_returns_x0(self):
        sched = cosine_schedule(100)
        rng = np.random.default_rng(0)
        x0 = np.array([1.0, -2.0])
        out = forward_noising(x0, 0, sched, rng)
        assert np.all(np.abs(out - x0) < 0.2)

    def test_variance_matches_schedule(self):
        sched = cosine_schedule(100)
        rng = np.random.default_rng(1)
        t = 60
        x0 = np.zeros((200_000, 1))
        out = forward_noising(x0, t, sched, rng)
        want = 1.0 - sched.alpha_bar[t]
        got = float(out.var())
        se = want * math.sqrt(2.0 / out.size)
        assert abs(got - want) <= 3 * se

    def test_reproducible_with_seed(self):
        sched = cosine_schedule(10)
        a = forward_noising(np.ones(3), 5, sched, np.random.default_rng(42))
        b = forward_noising(np.ones(3), 5, sched, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestModeAssignment:
    def test_at_mean(self):
        sc = default_scenario()
        for k in range(3):
            assert mode_assignment(sc.base.means[k], sc) == k

    def test_midpoint_tie_breaks_low(self):
        base = MixtureSpec(means=np.array([[-1.0], [1.0]]),
                           weights=np.array([0.7, 0.3]), sigma0=0.1)
        sc = scenario_of(base)
        assert mode_assignment(np.array([0.0]), sc) == 0

    def test_agrees_with_likelihood_oracle(self):
        # well-separated modes: nearest mean == max-likelihood component
        sc = default_scenario()
        seps = [np.linalg.norm(sc.base.means[i] - sc.base.means[j])
                for i in range(3) for j in range(i)]
        assert min(seps) >= 6 * sc.base.sigma0
        rng = np.random.default_rng(7)
        ks = rng.integers(0, 3, size=10_000)
        x0 = sc.base.means[ks] + sc.base.sigma0 * rng.standard_normal((10_000, 2))
        assigned = mode_assignment(x0, sc)
        d2 = np.sum((x0[:, None, :] - sc.base.means) ** 2, axis=-1)
        ml = np.argmin(d2, axis=-1)  # isotropic equal-sigma likelihood
        assert np.mean(assigned == ml) == 1.0


class TestScenarioIO:
    def test_roundtrip(self, tmp_path):
        sc = default_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.base.means, sc.base.means)
        np.testing.assert_array_equal(back.base.weights, sc.base.weights)
        assert back.base.sigma0 == sc.base.sigma0
        assert back.pi_major == sc.pi_major
        assert back.leakage_beta == sc.leakage_beta
        assert back.steps == sc.steps
        assert back.guidance == sc.guidance
        for label in (UNCOND, TARGET, ATTRACTOR):
            a, b = sc.channel(label), back.channel(label)
            if a.weights_override is None:
                assert b.weights_override is None
            else:
                np.testing.assert_array_equal(a.weights_override, b.weights_override)

    def test_roundtrip_without_guidance(self, tmp_path):
        sc = scenario_of(two_mode(w0=0.9))
        path = tmp_path / "s.json"
        save_scenario(sc, path)
        assert load_scenario(path).guidance is None


class TestBackend:
    def test_epsilon_contract(self):
        sc = default_scenario()
        be = ToyDenoiser(sc)
        eps = be.epsilon(np.array([0.1, 0.2]), 50, TARGET)
        assert eps.shape == (2,)
        assert np.all(np.isfinite(eps.values))

    def test_unknown_channel(self):
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError):
            be.epsilon(np.array([0.0, 0.0]), 50, "no-such-channel")


def _grid_scenario(d: int, K: int) -> BiasScenario:
    """K random means in d dimensions; the target and attractor channels
    put zero weight on some components."""
    rng = np.random.default_rng(10 * d + K)
    rest = np.full(K - 1, 0.4 / (K - 1))
    base = MixtureSpec(means=rng.normal(scale=3.0, size=(K, d)),
                       weights=np.r_[0.6, rest / rest.sum() * 0.4], sigma0=0.4)
    target, attr = np.zeros(K), np.r_[0.8, np.full(K - 1, 0.2 / (K - 1))]
    target[:2] = 0.3, 0.7
    return BiasScenario(base=base, dominant_index=0, rare_index=1, pi_major=0.6,
                        leakage_beta=0.3,
                        channels={UNCOND: PromptChannel(UNCOND),
                                  TARGET: PromptChannel(TARGET, target),
                                  ATTRACTOR: PromptChannel(ATTRACTOR, attr / attr.sum())})


class TestEpsilonChannels:
    LABELS = [UNCOND, TARGET, ATTRACTOR]

    # numpy sums an axis of 8 or more contiguous terms pairwise, a shorter
    # one term by term, so the grid has d and K on both sides of 8
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 16])
    @pytest.mark.parametrize("K", [3, 9])
    def test_equals_per_label_epsilon_bitwise(self, d, K):
        sc, sched = _grid_scenario(d, K), cosine_schedule(100)
        be = ToyDenoiser(sc, sched)
        rng = np.random.default_rng(d + K)
        for n in (1, 48, 3000):
            x = rng.normal(scale=4.0, size=(n, d))
            for t in (99, 50, 3, 0):
                got = be.epsilon_channels(x, t, self.LABELS)
                assert got.dtype == np.float64 and got.shape == (3, n, d)
                for c, label in enumerate(self.LABELS):
                    one = be.epsilon(x, t, label).reshape()
                    assert got[c].tobytes() == one.tobytes()
        lone = be.epsilon_channels(x[0], 50, self.LABELS[::-1])
        assert lone.shape == (3, d)
        assert lone[0].tobytes() == be.epsilon(x[0], 50, ATTRACTOR).values.tobytes()

    def test_unknown_label(self):
        be = ToyDenoiser(default_scenario())
        for _ in range(2):  # a failed lookup caches no stack
            with pytest.raises(ValidationError, match="unknown channel label 'nope'"):
                be.epsilon_channels(np.zeros((4, 2)), 50, [UNCOND, "nope"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_output(self, bad):
        # 1e200 is finite, but its squared distance overflows
        be = ToyDenoiser(default_scenario())
        x = np.zeros((4, 2))
        x[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            be.epsilon_channels(x, 50, [UNCOND, TARGET])

    @pytest.mark.parametrize("t", [-1, 100])
    def test_t_out_of_range(self, t):
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError, match="t must lie in"):
            be.epsilon_channels(np.zeros((4, 2)), t, [UNCOND])

    def test_last_dimension(self):
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError, match="last dimension"):
            be.epsilon_channels(np.zeros((4, 3)), 50, [UNCOND])
