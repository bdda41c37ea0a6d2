import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcr.errors import ValidationError
from dcr.guidance import GuidanceConfig
from dcr.toy import (ATTRACTOR, TARGET, UNCOND, BiasScenario, MixtureSpec,
                     NoiseScheduleSpec, PromptChannel, ToyDenoiser,
                     cosine_schedule, default_scenario, epsilon_prediction,
                     load_scenario, mode_assignment, posterior_mean,
                     responsibilities, sample_channel, save_scenario,
                     scenario_doc)
from oracles import np_posterior_evaluate, weighted_posterior_mean_mc


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
        base=base,
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

    @pytest.mark.parametrize("weights, sigma0", [
        ([np.nan, 0.5], 1.0), ([np.inf, 0.5], 1.0), ([0.5, 0.5], np.inf),
        ([0.5, 0.5], np.nan)],
        ids=["nan-weight", "inf-weight", "inf-sigma0", "nan-sigma0"])
    def test_mixture_rejects_non_finite(self, weights, sigma0):
        # abs(nan - 1) > 1e-12 is False, so the weight sum check alone lets
        # a NaN weight through
        with pytest.raises(ValidationError):
            MixtureSpec(means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
                        weights=np.array(weights), sigma0=sigma0)

    @pytest.mark.parametrize("override", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan]])
    def test_channel_override_rejects_non_finite(self, override):
        with pytest.raises(ValidationError):
            PromptChannel("x", np.array(override))

    def test_schedule_monotone(self):
        with pytest.raises(ValidationError):
            NoiseScheduleSpec(T=3, alpha_bar=np.array([0.9, 0.95, 0.5]))
        with pytest.raises(ValidationError):
            NoiseScheduleSpec(T=3, alpha_bar=np.array([1.2, 0.9, 0.5]))

    def test_cosine_schedule_in_open_unit_interval(self):
        sched = cosine_schedule(100)
        assert sched.alpha_bar[0] < 1.0 and sched.alpha_bar[0] > 0.999
        assert sched.alpha_bar[-1] > 0.0 and sched.alpha_bar[-1] < 1e-3

    @pytest.mark.parametrize("T", [1, 0, -3])
    def test_cosine_schedule_needs_two_steps(self, T):
        # the refusal is NoiseScheduleSpec's; cosine_schedule has no check of its own
        with pytest.raises(ValidationError, match=f"T must be >= 2, got {T}"):
            cosine_schedule(T)

    def test_bias_scenario_invariants(self):
        base = two_mode(w0=0.9)
        sc = scenario_of(base)
        assert sc.pi_major == 0.9
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


DERIVED = ("dominant_index", "rare_index", "pi_major", "leakage_beta")


def derived(sc):
    return tuple(getattr(sc, key) for key in DERIVED)


def channels_of(target, attr):
    return {UNCOND: PromptChannel(UNCOND), TARGET: PromptChannel(TARGET, np.array(target)),
            ATTRACTOR: PromptChannel(ATTRACTOR, np.array(attr))}


@st.composite
def scenario_cases(draw):
    """A scenario with K components in d dimensions and the four values its
    weights must give: a dominant mode heavier than one half, a Target on it
    and one rare mode, and an Attractor with at least pi_major on it."""
    K, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    dom, rare = draw(st.permutations(range(K)))[:2]
    pi_major = draw(st.floats(0.5, 0.99, exclude_min=True))
    rest = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=K - 1, max_size=K - 1)))
    weights = np.insert(rest / rest.sum() * (1.0 - pi_major), dom, pi_major)
    beta, attr_major = draw(st.floats(0.0, 0.99)), draw(st.floats(pi_major, 1.0))
    target = np.zeros(K)
    target[dom], target[rare] = beta, 1.0 - beta
    attr = np.full(K, (1.0 - attr_major) / (K - 1))
    attr[dom] = attr_major
    base = MixtureSpec(means=draw(hnp.arrays(np.float64, (K, d),
                                             elements=st.floats(-10.0, 10.0))),
                       weights=weights, sigma0=draw(st.floats(0.05, 2.0)))
    guidance = draw(st.sampled_from([None, default_scenario().guidance]))
    sc = BiasScenario(base=base, channels=channels_of(target, attr), guidance=guidance,
                      steps=draw(st.integers(2, 200)))
    return sc, (dom, rare, pi_major, beta)


class TestDerivedValues:
    MEANS = np.array([[3.8, 0.0], [-2.0, 1.5], [1.5, 0.0]])

    def write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def test_the_suite_scenarios_derive_what_their_helpers_passed(self):
        one_d = MixtureSpec(means=np.array([[-1.0], [1.0]]),
                            weights=np.array([0.7, 0.3]), sigma0=0.1)
        sharp = MixtureSpec(means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
                            weights=np.array([0.7, 0.3]), sigma0=1e-6)
        cases = [(default_scenario(), 0.9, 0.35), (scenario_of(two_mode()), 0.7, 0.35),
                 (scenario_of(two_mode(w0=0.9)), 0.9, 0.35),
                 (scenario_of(two_mode(sigma0=0.7)), 0.7, 0.35),
                 (scenario_of(one_d), 0.7, 0.35), (scenario_of(sharp), 0.7, 0.35)]
        cases += [(_grid_scenario(d, K), 0.6, 0.3)
                  for K in (2, 3, 7, 8, 9) for d in (1, 2, 7, 8, 16)]
        for sc, pi_major, leakage_beta in cases:
            assert derived(sc) == (0, 1, pi_major, leakage_beta)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_cases())
    def test_save_and_load_round_trip_the_values_and_the_bytes(self, tmp_path, case):
        sc, want = case
        assert derived(sc) == want
        path, again = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert derived(back) == want
        save_scenario(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_a_file_with_or_without_the_derived_keys_loads(self, tmp_path):
        doc = scenario_doc(default_scenario())
        for kept in (doc, {key: v for key, v in doc.items() if key not in DERIVED},
                     doc | {"pi_major": 0.9 + 5e-13, "dominant_index": 0.0}):
            assert derived(load_scenario(self.write(tmp_path, kept))) == (0, 1, 0.9, 0.35)

    @pytest.mark.parametrize("key, value", [
        ("dominant_index", 2), ("rare_index", 2), ("pi_major", 0.9 + 2e-12),
        ("leakage_beta", 0.3), ("pi_major", "0.9"), ("leakage_beta", 10**400),
        ("rare_index", None), ("rare_index", True), ("dominant_index", False)])
    def test_a_derived_key_that_disagrees_is_refused(self, tmp_path, key, value):
        path = self.write(tmp_path, scenario_doc(default_scenario()) | {key: value})
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert f"scenario file {path}: {key} is {value!r}" in str(err.value)

    @pytest.mark.parametrize("typo, key", [("guidnace", "guidance"), ("step", "steps")])
    def test_an_unknown_key_is_refused(self, tmp_path, typo, key):
        doc = scenario_doc(default_scenario())
        doc[typo] = doc.pop(key)
        path = self.write(tmp_path, doc)
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert f"scenario file {path}: unknown keys ['{typo}']" in str(err.value)

    @pytest.mark.parametrize("where, value, named", [
        (["steps"], 99.9, "steps: 99.9 is not an integer"),
        (["steps"], "100", "steps: '100' is not an integer"),
        (["steps"], True, "steps: True is not an integer"),
        (["sigma0"], "0.33", "sigma0: '0.33' is not a number"),
        (["sigma0"], True, "sigma0: True is not a number"),
        (["means", 1, 0], "-2.0", "means: '-2.0' is not a number"),
        (["weights", 2], "0.08", "weights: '0.08' is not a number"),
        (["weights"], [True, False, False], "weights: True is not a number"),
        (["channels", "target", 1], "0.65", "channels.target: '0.65' is not a number"),
        (["guidance", "eta"], "64.0", "guidance.eta: '64.0' is not a number"),
        (["guidance", "w"], True, "guidance.w: True is not a number")])
    def test_a_mistyped_number_is_refused(self, tmp_path, where, value, named):
        # strings and booleans used to load as the numbers they convert to
        doc = scenario_doc(default_scenario())
        *parents, last = where
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        path = self.write(tmp_path, doc)
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert f"scenario file {path}: {named}" in str(err.value)

    def test_an_integer_beyond_float_range_is_refused(self, tmp_path):
        path = self.write(tmp_path, scenario_doc(default_scenario()) | {"sigma0": 10**400})
        with pytest.raises(ValidationError, match="too large"):
            load_scenario(path)

    @pytest.mark.parametrize("weights, target, attr", [
        ([0.9, 0.02, 0.08], [0.3, 0.6, 0.1], [1.0, 0.0, 0.0]),
        ([0.9, 0.02, 0.08], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.9, 0.02, 0.08], [0.35, 0.65, 0.0], [0.8, 0.1, 0.1]),
        ([0.45, 0.35, 0.2], [0.35, 0.65, 0.0], [1.0, 0.0, 0.0]),
        ([0.5, 0.3, 0.2], [0.35, 0.65, 0.0], [1.0, 0.0, 0.0]),
    ], ids=["target-on-a-third-mode", "target-on-no-rare-mode", "weak-attractor",
            "no-majority", "half-is-no-majority"])
    def test_a_scenario_without_one_dominant_and_one_rare_mode_is_refused(
            self, weights, target, attr):
        base = MixtureSpec(means=self.MEANS, weights=np.array(weights), sigma0=0.33)
        with pytest.raises(ValidationError):
            BiasScenario(base=base, channels=channels_of(target, attr))


    @pytest.mark.parametrize("label, weights", [(UNCOND, [0.5, 0.5]), ("extra", [1.0])])
    def test_a_channel_with_the_wrong_number_of_weights_is_refused(self, tmp_path,
                                                                   label, weights):
        # only the target and attractor weights used to be checked, so such a
        # file loaded and the backend refused it later
        doc = scenario_doc(default_scenario())
        doc["channels"][label] = weights
        path = self.write(tmp_path, doc)
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert (f"scenario file {path}: channel '{label}': override weights must "
                "match the component count") in str(err.value)


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

    @pytest.mark.parametrize("x_t", [5.0, np.zeros(3), np.zeros((4, 1))],
                             ids=["0-d", "3-d", "1-wide-batch"])
    def test_a_wrong_last_dimension_is_refused(self, x_t):
        # a 0-d x_t has no last dimension, and used to raise IndexError
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError, match="x_t last dimension must be 2"):
            be.epsilon(x_t, 10, TARGET)


def _grid_scenario(d: int, K: int) -> BiasScenario:
    """K random means in d dimensions; the target and attractor channels
    put zero weight on some components."""
    rng = np.random.default_rng(10 * d + K)
    rest = np.full(K - 1, 0.4 / (K - 1))
    base = MixtureSpec(means=rng.normal(scale=3.0, size=(K, d)),
                       weights=np.r_[0.6, rest / rest.sum() * 0.4], sigma0=0.4)
    target, attr = np.zeros(K), np.r_[0.8, np.full(K - 1, 0.2 / (K - 1))]
    target[:2] = 0.3, 0.7
    return BiasScenario(base=base,
                        channels={UNCOND: PromptChannel(UNCOND),
                                  TARGET: PromptChannel(TARGET, target),
                                  ATTRACTOR: PromptChannel(ATTRACTOR, attr / attr.sum())})


class TestEpsilonChannels:
    LABELS = [UNCOND, TARGET, ATTRACTOR]

    # a channel's values do not depend on the other channels of its call or
    # on the rows beside it; d and K lie on both sides of 8, where numpy
    # starts to sum a contiguous axis pairwise
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

    def test_a_result_outlives_the_next_call(self):
        # the kernel keeps one workspace from call to call, and what it
        # returns is a new array: a second one-row call with the same shape
        # leaves the first result as it was, also where the (C, 1, d) result
        # is already contiguous as the kernel lays it out
        be = ToyDenoiser(default_scenario())
        x0, x1 = np.random.default_rng(5).normal(scale=3.0, size=(2, 1, 2))
        first = be.epsilon(x0[0], 50, TARGET)
        kept = first.values.copy()
        second = be.epsilon(x1[0], 50, TARGET)
        assert second.values.tobytes() != kept.tobytes()
        assert first.values.tobytes() == kept.tobytes()
        first = be.epsilon_channels(x0, 50, self.LABELS)
        kept = first.copy()
        second = be.epsilon_channels(x1, 50, self.LABELS)
        assert second.tobytes() != kept.tobytes()
        assert first.tobytes() == kept.tobytes()

    def test_unknown_label(self):
        be = ToyDenoiser(default_scenario())
        for _ in range(2):  # a failed lookup caches no stack
            with pytest.raises(ValidationError, match="unknown channel label 'nope'"):
                be.epsilon_channels(np.zeros((4, 2)), 50, [UNCOND, "nope"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_output(self, bad):
        # 1e200 is finite, but its squared distance overflows. epsilon
        # rejects the non-finite prediction through NoisePrediction;
        # epsilon_channels returns it, for the sampling loop to check
        be = ToyDenoiser(default_scenario())
        x = np.zeros((4, 2))
        x[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            be.epsilon(x, 50, TARGET)
        stack = be.epsilon_channels(x, 50, [UNCOND, TARGET])
        assert not np.isfinite(stack[:, 2]).all()
        assert np.isfinite(np.delete(stack, 2, axis=1)).all()

    @pytest.mark.parametrize("t", [-1, 100])
    def test_t_out_of_range(self, t):
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError, match="t must lie in"):
            be.epsilon_channels(np.zeros((4, 2)), t, [UNCOND])

    def test_last_dimension(self):
        be = ToyDenoiser(default_scenario())
        with pytest.raises(ValidationError, match="last dimension"):
            be.epsilon_channels(np.zeros((4, 3)), 50, [UNCOND])


class TestRowsFirstOracle:
    """The posterior kernel against ``np_posterior_evaluate``, the same
    arithmetic with the rows first and the sums over the trailing K and d
    axes. numpy sums a contiguous axis of fewer than 8 terms term by term,
    as it sums the kernel's strided ones, so below 8 components and below 8
    coordinates every output is bitwise the reference's."""

    LABELS = [UNCOND, TARGET, ATTRACTOR]
    # (K, d) pairs: below 8 components and 8 coordinates, and the rest
    BITWISE = [(K, d) for K in (2, 3, 7) for d in (1, 2, 7)]
    CLOSE = [(K, d) for K in (2, 3, 7, 8, 9) for d in (1, 2, 7, 8, 16)
             if K >= 8 or d >= 8]

    def cases(self, K, d):
        """(kernel, reference) pairs of responsibilities, posterior means
        and noise predictions over N in {1, 48, 3000} and four steps."""
        sc, sched = _grid_scenario(d, K), cosine_schedule(100)
        be, chans = ToyDenoiser(sc, sched), [sc.channel(lb) for lb in self.LABELS]
        weights = np.array([ch.weights_for(sc.base) for ch in chans])
        rng = np.random.default_rng(100 * K + d)
        for n in (1, 48, 3000):
            x = rng.normal(scale=4.0, size=(n, d))
            for t in (99, 50, 3, 0):
                ref = np_posterior_evaluate(x, t, weights, sc.base.means, sc.base.sigma0,
                                            sched.alpha_bar)
                got = (np.array([responsibilities(x, t, ch, sc, sched) for ch in chans]),
                       np.array([posterior_mean(x, t, ch, sc, sched) for ch in chans]),
                       be.epsilon_channels(x, t, self.LABELS))
                yield from zip(got, ref)

    @pytest.mark.parametrize("K, d", BITWISE)
    def test_bitwise_below_8_components(self, K, d):
        for got, ref in self.cases(K, d):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("K, d", CLOSE)
    def test_close_from_8_components(self, K, d):
        # numpy sums the reference's contiguous K and d axes pairwise from 8
        # terms on, the kernel's strided ones term by term: the two sums
        # differ by a few ulps of their largest term, and the cancellation
        # in x - sqrt(ab) * E[x0 | x_t] and the division by sqrt(1 - ab)
        # scale that up. Measured at most 2.2e-13 of an array's largest
        # value below 8 components (at d = 8 and d = 16) and 2.6e-13 from 8
        # components; the bound is 1e-10 of it.
        for got, ref in self.cases(K, d):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", [(), (4, 5)])
    def test_one_latent_and_a_nested_batch(self, shape):
        sc = default_scenario()
        sched = cosine_schedule(sc.steps)
        x = np.random.default_rng(4).normal(scale=3.0, size=(*shape, sc.dim))
        chans = [sc.channel(lb) for lb in self.LABELS]
        weights = np.array([ch.weights_for(sc.base) for ch in chans])
        eps = ToyDenoiser(sc, sched).epsilon_channels(x, 50, self.LABELS)
        r_ref, mean_ref, eps_ref = np_posterior_evaluate(
            x, 50, weights, sc.base.means, sc.base.sigma0, sched.alpha_bar)
        assert eps.shape == (3, *shape, sc.dim) and eps.tobytes() == eps_ref.tobytes()
        for c, ch in enumerate(chans):
            r = responsibilities(x, 50, ch, sc, sched)
            mean = posterior_mean(x, 50, ch, sc, sched)
            assert r.shape == (*shape, sc.base.n_components)
            assert mean.shape == x.shape
            assert r.tobytes() == r_ref[c].tobytes()
            assert mean.tobytes() == mean_ref[c].tobytes()
