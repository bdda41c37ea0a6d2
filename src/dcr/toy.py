"""Closed-form conditional Gaussian-mixture denoiser.

Each prompt channel is a reweighting of a shared isotropic mixture, so the
optimal noise prediction is available in closed form and collapse toward the
dominant mode is an exactly measurable quantity. The mixture posterior under
the variance-preserving forward process x_t = sqrt(ab)*x0 + sqrt(1-ab)*z is

    x_t | k ~ N(sqrt(ab)*m_k, v_t I),   v_t = ab*sigma0^2 + (1 - ab)
    E[x0 | x_t, k] = m_k + (sqrt(ab)*sigma0^2 / v_t) * (x_t - sqrt(ab)*m_k)

with responsibilities computed in log space (mandatory: marginal variances
shrink near the clean end).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .guidance import GuidanceConfig, NoisePrediction

UNCOND = "uncond"
TARGET = "target"
ATTRACTOR = "attractor"

_LOG_TINY = -1e30  # stands in for log(0) in channel weights


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture: component means (K, d), weights (K,),
    shared standard deviation sigma0."""

    means: np.ndarray
    weights: np.ndarray
    sigma0: float

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValidationError("mixture needs at least 2 components with vector means")
        if not np.all(np.isfinite(means)):
            raise ValidationError("component means must be finite")
        if weights.shape != (means.shape[0],):
            raise ValidationError("weights must match the component count")
        if np.any(weights <= 0) or np.any(weights > 1):
            raise ValidationError("base weights must lie in (0, 1]")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1, got {weights.sum()!r}")
        if not (self.sigma0 > 0):
            raise ValidationError(f"sigma0 must be positive, got {self.sigma0}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class PromptChannel:
    """A conditioning channel: a label plus optional component reweighting.
    Override weights may be zero on some components (a prompt that excludes
    them); without an override the base mixture weights apply."""

    label: str
    weights_override: np.ndarray | None = None

    def __post_init__(self):
        if not self.label:
            raise ValidationError("channel label must be nonempty")
        if self.weights_override is not None:
            w = np.asarray(self.weights_override, dtype=np.float64)
            if np.any(w < 0):
                raise ValidationError("override weights must be non-negative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValidationError("override weights must sum to 1")
            object.__setattr__(self, "weights_override", w)

    def weights_for(self, base: MixtureSpec) -> np.ndarray:
        if self.weights_override is None:
            return base.weights
        if self.weights_override.shape != (base.n_components,):
            raise ValidationError("override weights must match the component count")
        return self.weights_override


@dataclass(frozen=True)
class NoiseScheduleSpec:
    """Strictly decreasing alpha-bar sequence in (0, 1], length T."""

    T: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if self.T < 2:
            raise ValidationError(f"T must be >= 2, got {self.T}")
        if ab.shape != (self.T,):
            raise ValidationError("alpha_bar length must equal T")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise ValidationError("alpha_bar values must lie in (0, 1]")
        if np.any(np.diff(ab) >= 0):
            raise ValidationError("alpha_bar must be strictly decreasing")
        object.__setattr__(self, "alpha_bar", ab)

    @cached_property
    def reverse_coefficients(self) -> np.ndarray:
        """(2, T, 4) read-only float64, built on first use: for each t >= 1
        the scalars of the reverse transition x_t -> x_{t-1} that
        ``dcr.sampling.scheduler_step`` applies (row t = 0 is NaN). With
        ab = alpha_bar, alpha_t = ab[t]/ab[t-1] and beta_t = 1 - alpha_t:

        - [0, t], ancestral: beta_t/sqrt(1-ab[t]), sqrt(alpha_t),
          sqrt((1-ab[t-1])/(1-ab[t])*beta_t) and NaN;
        - [1, t], deterministic: sqrt(1-ab[t]), sqrt(ab[t]), sqrt(ab[t-1])
          and sqrt(1-ab[t-1]).
        """
        ab_t, ab_prev = self.alpha_bar[1:], self.alpha_bar[:-1]
        alpha_t = ab_t / ab_prev
        beta_t = 1.0 - alpha_t
        out = np.full((2, self.T, 4), np.nan)
        out[0, 1:, 0] = beta_t / np.sqrt(1.0 - ab_t)
        out[0, 1:, 1] = np.sqrt(alpha_t)
        out[0, 1:, 2] = np.sqrt((1.0 - ab_prev) / (1.0 - ab_t) * beta_t)
        out[1, 1:] = np.sqrt(np.stack([1.0 - ab_t, ab_t, ab_prev, 1.0 - ab_prev], 1))
        out.flags.writeable = False
        return out


def cosine_schedule(T: int, s: float = 0.008) -> NoiseScheduleSpec:
    """Cosine-like alpha-bar evaluated at interval midpoints so that
    alpha_bar[0] < 1 and alpha_bar[T-1] > 0 strictly."""
    if T < 2:
        raise ValidationError(f"T must be >= 2, got {T}")
    u = (np.arange(T, dtype=np.float64) + 0.5) / T
    f = np.cos((u + s) / (1.0 + s) * np.pi / 2.0) ** 2
    f0 = np.cos((s / (1.0 + s)) * np.pi / 2.0) ** 2
    return NoiseScheduleSpec(T=T, alpha_bar=f / f0)


@dataclass(frozen=True)
class BiasScenario:
    """A mixture with a dominant mode, a rare mode the Target channel prefers,
    and the leakage that models default completion bias.

    The Target channel puts 1-leakage_beta on the rare mode and leakage_beta
    on the dominant one; the Attractor channel puts at least pi_major on the
    dominant mode; the unconditional weight of the dominant mode is pi_major.
    """

    base: MixtureSpec
    dominant_index: int
    rare_index: int
    pi_major: float
    leakage_beta: float
    channels: dict[str, PromptChannel]
    guidance: GuidanceConfig | None = None
    steps: int = 100

    def __post_init__(self):
        k = self.base.n_components
        if not (0 <= self.dominant_index < k and 0 <= self.rare_index < k):
            raise ValidationError("dominant/rare indices out of range")
        if self.dominant_index == self.rare_index:
            raise ValidationError("dominant and rare indices must differ")
        if not (0.5 < self.pi_major < 1.0):
            raise ValidationError(f"pi_major must lie in (0.5, 1), got {self.pi_major}")
        if not (0.0 <= self.leakage_beta < 1.0):
            raise ValidationError(f"leakage_beta must lie in [0, 1), got {self.leakage_beta}")
        if abs(self.base.weights[self.dominant_index] - self.pi_major) > 1e-12:
            raise ValidationError("base weight of the dominant mode must equal pi_major")
        for label in (UNCOND, TARGET, ATTRACTOR):
            if label not in self.channels:
                raise ValidationError(f"scenario must define the '{label}' channel")
        tw = self.channels[TARGET].weights_for(self.base)
        if abs(tw[self.rare_index] - (1.0 - self.leakage_beta)) > 1e-12 or \
                abs(tw[self.dominant_index] - self.leakage_beta) > 1e-12:
            raise ValidationError(
                "Target channel must place 1-leakage_beta on the rare mode and "
                "leakage_beta on the dominant mode")
        aw = self.channels[ATTRACTOR].weights_for(self.base)
        if aw[self.dominant_index] < self.pi_major - 1e-12:
            raise ValidationError(
                "Attractor channel must place at least pi_major on the dominant mode")
        if self.steps < 2:
            raise ValidationError("steps must be >= 2")

    @property
    def dim(self) -> int:
        return self.base.dim

    def channel(self, label: str) -> PromptChannel:
        try:
            return self.channels[label]
        except KeyError:
            raise ValidationError(f"unknown channel label '{label}'") from None


def default_scenario() -> BiasScenario:
    """The shipped desk-scale scenario.

    Three well-separated modes in 2-D: a dominant completion east of the
    noise cloud, the rare target west-north, and a context mode on the path
    toward the dominant one, which is what gives the attractor drift genuine
    (non-collinear) geometry. The guidance preset is calibrated for this
    backend: w=1.5 keeps plain-CFG collapse measurable and the repulsion
    strength/interval compensate for the weak drift-to-update alignment of a
    low-dimensional analytic denoiser.
    """
    base = MixtureSpec(
        means=np.array([[3.8, 0.0], [-2.0, 1.5], [1.5, 0.0]]),
        weights=np.array([0.9, 0.02, 0.08]),
        sigma0=0.33,
    )
    channels = {
        UNCOND: PromptChannel(UNCOND),
        TARGET: PromptChannel(TARGET, np.array([0.35, 0.65, 0.0])),
        ATTRACTOR: PromptChannel(ATTRACTOR, np.array([1.0, 0.0, 0.0])),
    }
    guidance = GuidanceConfig(w=1.5, w_attr=1.45, eta=64.0, gamma=2.0,
                              r_s=0.1, r_e=0.7, eps_stab=1e-8)
    return BiasScenario(base=base, dominant_index=0, rare_index=1,
                        pi_major=0.9, leakage_beta=0.35, channels=channels,
                        guidance=guidance, steps=100)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    out = np.full(weights.shape, _LOG_TINY)
    pos = weights > 0
    out[pos] = np.log(weights[pos])
    return out


class _Posterior:
    """The mixture posterior's per-step constants, precomputed for every t of
    a schedule, and the one kernel that evaluates the posterior at x_t for a
    stack of channels, which differ only in their log weights.

    The kernel keeps x_t's M rows last, in memory as well as in its
    indexing: it copies them into a C-contiguous (d, M) buffer and writes
    every intermediate with ``out=`` into C-contiguous buffers, the
    distances and the per-component means as (K, d, M), the responsibilities
    as (C, K, M), their products with the means as (C, K, d, M) and the
    posterior means as (C, d, M). Every elementwise pass then runs along the
    M rows, and every sum and max over the short K or d axis is a few
    vectorized passes along them. The buffers form one workspace, kept for
    the next call with the same (C, M) and replaced when either changes;
    buffers whose lifetimes do not overlap share memory. So ``evaluate``'s
    outputs are views that the next call overwrites, and a ``_Posterior``
    must not be shared between threads.

    numpy sums a strided axis term by term, and a contiguous one term by
    term only below 8 terms (pairwise from 8 on). So with fewer than 8
    components and fewer than 8 coordinates every output is bitwise that of
    the rows-first layout, which ``tests/oracles.py`` keeps as
    ``np_posterior_evaluate``; from 8 on, the K or d sums round differently
    in the last bits.
    """

    def __init__(self, base: MixtureSpec, sched: NoiseScheduleSpec):
        ab = sched.alpha_bar
        s2 = base.sigma0 ** 2
        v = ab * s2 + (1.0 - ab)
        self.means = base.means[:, :, None]  # (K, d, 1)
        self.sqrt_ab = np.sqrt(ab)
        self.scaled_means = self.sqrt_ab[:, None, None, None] * self.means  # (T, K, d, 1)
        self.two_v = 2.0 * v
        self.shrink = self.sqrt_ab * s2 / v
        self.sqrt_one_minus_ab = np.sqrt(1.0 - ab)
        self._shape: tuple[int, int] | None = None  # the workspace's (C, M)

    def _workspace(self, C: int, M: int) -> tuple[np.ndarray, ...]:
        """The buffers for C channels and M rows, kept while (C, M) stays."""
        if self._shape != (C, M):
            K, d = self.means.shape[:2]
            cdm = np.empty((C, d, M))
            self._shape, self._buffers = (C, M), (
                np.empty((d, M)),        # x_t's rows
                np.empty((K, d, M)),     # distances, then per-component means
                np.empty((K, M)),        # squared distances over 2 v_t
                np.empty((C, K, M)),     # log responsibilities, then responsibilities
                np.empty((C, K, d, M)),  # squared distances, then r * means
                cdm,                     # posterior means, then noise predictions
                cdm[:, :1])              # max and sum over K, before the means
        return self._buffers

    def evaluate(self, x_t, t: int, log_w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x_t's M rows as float64 (d, M), and for each row of the (C, K) log
        weights the responsibilities r_k(x_t) (C, K, M) and the posterior
        mean E[x0 | x_t] (C, d, M), where M is the product of x_t's leading
        axes. The distances to the scaled means are computed once for all C
        channels. All three are workspace views, valid until the next
        call."""
        T, dim = self.sqrt_ab.size, self.means.shape[1]
        if not (0 <= t < T):
            raise ValidationError(f"t must lie in [0, {T - 1}], got {t}")
        x = np.asarray(x_t, dtype=np.float64)
        if x.shape[-1] != dim:
            raise ValidationError(f"x_t last dimension must be {dim}")
        x = x.reshape(-1, dim)
        xs, kdm, km, ckm, ckdm, cdm, c1m = self._workspace(len(log_w), len(x))
        np.copyto(xs, x.T)
        diff = np.subtract(xs, self.scaled_means[t], out=kdm)
        # the ufunc reductions that .sum and .max call, without their wrappers
        sq = np.multiply(diff, diff, out=ckdm[0])
        np.divide(np.add.reduce(sq, axis=1, out=km), self.two_v[t], out=km)
        logr = np.subtract(log_w[:, :, None], km, out=ckm)
        np.subtract(logr, np.maximum.reduce(logr, axis=1, keepdims=True, out=c1m),
                    out=logr)
        r = np.exp(logr, out=logr)
        np.divide(r, np.add.reduce(r, axis=1, keepdims=True, out=c1m), out=r)
        mhat = np.add(self.means, np.multiply(self.shrink[t], diff, out=diff), out=diff)
        prod = np.multiply(r[:, :, None], mhat, out=ckdm)
        return xs, r, np.add.reduce(prod, axis=1, out=cdm)

    def epsilon_channels(self, x_t, t: int, log_w: np.ndarray) -> np.ndarray:
        """(x_t - sqrt(ab)*E[x0|x_t]) / sqrt(1-ab) for each row of the (C, K)
        log weights, as a new array of shape (C, *x_t.shape). Values are not
        checked for finiteness: ``NoisePrediction`` checks ``epsilon``'s, and
        the sampling loop the stack it gets."""
        x, _, mean = self.evaluate(x_t, t, log_w)
        if self.sqrt_one_minus_ab[t] == 0.0:
            raise ValidationError("alpha_bar[t] == 1 leaves no noise to predict")
        eps = np.multiply(self.sqrt_ab[t], mean, out=mean)
        eps = np.divide(np.subtract(x, eps, out=eps), self.sqrt_one_minus_ab[t],
                        out=eps)  # (C, d, M)
        # .copy() always copies, so the result never aliases the workspace
        return eps.transpose(0, 2, 1).copy().reshape(len(log_w), *np.shape(x_t))


def _channel_posterior(channel: PromptChannel, scenario: BiasScenario,
                       sched: NoiseScheduleSpec) -> tuple[_Posterior, np.ndarray]:
    return (_Posterior(scenario.base, sched),
            _log_weights(channel.weights_for(scenario.base))[None])


def responsibilities(x_t: np.ndarray, t: int, channel: PromptChannel,
                     scenario: BiasScenario, sched: NoiseScheduleSpec) -> np.ndarray:
    """Posterior component responsibilities r_k(x_t), shape (..., K).
    Computed in log space; sums to 1 along the last axis."""
    post, log_w = _channel_posterior(channel, scenario, sched)
    r = post.evaluate(x_t, t, log_w)[1][0]
    return r.T.reshape(*np.shape(x_t)[:-1], len(r))


def posterior_mean(x_t: np.ndarray, t: int, channel: PromptChannel,
                   scenario: BiasScenario, sched: NoiseScheduleSpec) -> np.ndarray:
    """Exact E[x0 | x_t] for the channel's mixture; shape matches x_t."""
    post, log_w = _channel_posterior(channel, scenario, sched)
    return post.evaluate(x_t, t, log_w)[2][0].T.reshape(np.shape(x_t))


def epsilon_prediction(x_t: np.ndarray, t: int, channel: PromptChannel,
                       scenario: BiasScenario, sched: NoiseScheduleSpec
                       ) -> NoisePrediction:
    """Exact optimal noise prediction (x_t - sqrt(ab)*E[x0|x_t]) / sqrt(1-ab)."""
    post, log_w = _channel_posterior(channel, scenario, sched)
    return NoisePrediction.from_array(post.epsilon_channels(x_t, t, log_w)[0])


def forward_noising(x0: np.ndarray, t: int, sched: NoiseScheduleSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw x_t = sqrt(ab)*x0 + sqrt(1-ab)*z with z standard normal."""
    if not (0 <= t < sched.T):
        raise ValidationError(f"t must lie in [0, {sched.T - 1}], got {t}")
    x0 = np.asarray(x0, dtype=np.float64)
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * rng.standard_normal(x0.shape)


def sample_channel(scenario: BiasScenario, label: str, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw n exact samples from a channel's mixture (test/oracle helper)."""
    w = scenario.channel(label).weights_for(scenario.base)
    ks = rng.choice(scenario.base.n_components, size=n, p=w)
    return scenario.base.means[ks] + scenario.base.sigma0 * rng.standard_normal(
        (n, scenario.dim))


def mode_assignment(x0: np.ndarray, scenario: BiasScenario) -> np.ndarray | int:
    """Index of the nearest component mean; ties break toward the lower index.
    Accepts a single point (returns int) or a batch (..., d)."""
    x = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValidationError("x0 must be finite")
    single = x.ndim == 1
    d2 = np.sum((x[..., None, :] - scenario.base.means) ** 2, axis=-1)
    idx = np.argmin(d2, axis=-1)
    return int(idx) if single else idx


def scenario_doc(scenario: BiasScenario) -> dict:
    """The scenario as the JSON object ``load_scenario`` reads."""
    doc = {
        "sigma0": scenario.base.sigma0,
        "means": scenario.base.means.tolist(),
        "weights": scenario.base.weights.tolist(),
        "dominant_index": scenario.dominant_index,
        "rare_index": scenario.rare_index,
        "pi_major": scenario.pi_major,
        "leakage_beta": scenario.leakage_beta,
        "channels": {
            label: (None if ch.weights_override is None else ch.weights_override.tolist())
            for label, ch in scenario.channels.items()
        },
        "steps": scenario.steps,
    }
    if scenario.guidance is not None:
        doc["guidance"] = asdict(scenario.guidance)
    return doc


def save_scenario(scenario: BiasScenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_doc(scenario), indent=2) + "\n",
                          encoding="utf-8")


def load_scenario(path) -> BiasScenario:
    """ValidationError names the file when it is not JSON, lacks a key or
    holds a value of the wrong type."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        base = MixtureSpec(means=np.array(doc["means"], dtype=np.float64),
                           weights=np.array(doc["weights"], dtype=np.float64),
                           sigma0=float(doc["sigma0"]))
        channels = {
            label: PromptChannel(label, None if ov is None else np.array(ov, dtype=np.float64))
            for label, ov in doc["channels"].items()
        }
        guidance = GuidanceConfig(**doc["guidance"]) if "guidance" in doc else None
        return BiasScenario(base=base,
                            dominant_index=int(doc["dominant_index"]),
                            rare_index=int(doc["rare_index"]),
                            pi_major=float(doc["pi_major"]),
                            leakage_beta=float(doc["leakage_beta"]),
                            channels=channels,
                            guidance=guidance,
                            steps=int(doc.get("steps", BiasScenario.steps)))
    except KeyError as exc:
        raise ValidationError(f"scenario file {path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"scenario file {path}: {exc}") from None


class ToyDenoiser:
    """Denoiser backend over a BiasScenario: exact, and a pure function of
    its inputs. It computes in a workspace that it keeps between calls (see
    ``_Posterior``), so one ToyDenoiser must not be shared between threads;
    every array it returns is new.

    ``epsilon_channels(x_t, t, labels)`` takes a batch of shape
    (N, *latent_shape) and returns every listed channel's prediction as one
    float64 array of shape (len(labels), N, *latent_shape), from one set of
    distances to the mixture means. ``epsilon(x_t, t, channel_label)`` is its
    one-channel case: it takes one latent of ``latent_shape`` or a batch and
    returns a NoisePrediction of the same shape. Each row of a batch and each
    channel of a stack equals the one-channel call on that row alone,
    bitwise. Both raise ValidationError on an unknown label, a ``t`` outside
    the schedule or a wrong last dimension. Only ``epsilon`` raises on
    non-finite output, through ``NoisePrediction``; ``epsilon_channels``
    returns it, and the sampling loop, which checks every stack it gets,
    treats it as a failed call.
    """

    def __init__(self, scenario: BiasScenario, sched: NoiseScheduleSpec | None = None):
        self.scenario = scenario
        self.schedule = sched if sched is not None else cosine_schedule(scenario.steps)
        self.latent_shape = (scenario.dim,)
        self._posterior = _Posterior(scenario.base, self.schedule)
        self._log_weights = {label: _log_weights(ch.weights_for(scenario.base))
                             for label, ch in scenario.channels.items()}
        self._stacks: dict[tuple[str, ...], np.ndarray] = {}  # (C, K) per label tuple

    def epsilon_channels(self, x_t: np.ndarray, t: int, labels) -> np.ndarray:
        key = tuple(labels)
        log_w = self._stacks.get(key)
        if log_w is None:
            try:
                log_w = np.array([self._log_weights[label] for label in key])
            except KeyError as exc:
                raise ValidationError(f"unknown channel label '{exc.args[0]}'") from None
            log_w.flags.writeable = False
            self._stacks[key] = log_w
        return self._posterior.epsilon_channels(x_t, t, log_w)

    def epsilon(self, x_t: np.ndarray, t: int, channel_label: str) -> NoisePrediction:
        return NoisePrediction.from_array(self.epsilon_channels(x_t, t, [channel_label])[0])
