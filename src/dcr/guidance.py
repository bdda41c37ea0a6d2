"""Three-branch guidance math: CFG update, attractor probe, counterfactual
drift, polynomial activation schedule, and projection-based repulsion.

All operations are pure functions over immutable inputs and work on the
fully flattened latent vector in float64. The per-step pipeline is

    delta_ref = w * (eps_text - eps_uncond)
    eps_probe = eps_uncond + w_attr * (eps_attr - eps_uncond)
    drift     = eps_probe - eps_target        (== the expanded two-branch form)
    s = <drift, delta_ref>,  n = ||drift||^2 + eps_stab
    lambda = alpha * eta * max(s, 0) / n
    delta_star = delta_ref - lambda * drift
    eps_star = eps_uncond + delta_star

Only positive alignment is penalized; with lambda == 0 the corrected update
is bit-identical to the plain CFG update.

Each equation is written once, over (N, D) rows or one (D,) latent. The one
row-wise step is ``_guided_rows`` and ``_step_diagnostics``: the sampling loop
checks its arguments once per run and runs it, and ``dcr_guided_prediction``
is its checked one-latent case. The other public functions on one latent add
only the shape and range checks of their typed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeMismatchError, ValidationError


def _finite(values) -> np.ndarray:
    """values as float64; ValidationError if they hold a NaN or an infinity."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("latent values must be finite (no NaN/Inf)")
    return values


@dataclass(frozen=True)
class _FlatVector:
    """Finite float64 values, flattened, with the positive latent shape they
    came from."""

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _finite(self.values).reshape(-1))
        shape = tuple(int(d) for d in self.shape)
        if any(d <= 0 for d in shape):
            raise ValidationError(f"shape dimensions must be positive: {shape}")
        if math.prod(shape) != self.values.size:
            raise ShapeMismatchError(
                f"shape {shape} does not match {self.values.size} values")
        object.__setattr__(self, "shape", shape)


@dataclass(frozen=True)
class NoisePrediction(_FlatVector):
    """One denoiser branch output: a flattened latent-shaped noise vector."""

    @classmethod
    def from_array(cls, arr) -> "NoisePrediction":
        a = np.asarray(arr, dtype=np.float64)
        return cls(values=a.reshape(-1), shape=a.shape)

    def reshape(self) -> np.ndarray:
        return self.values.reshape(self.shape)


@dataclass(frozen=True)
class GuidanceUpdate(_FlatVector):
    """A guidance correction vector with the same shape contract as the
    predictions it was built from."""


@dataclass(frozen=True)
class GuidanceConfig:
    """All guidance scalars.

    ``w`` has no default on purpose: it is backend-specific and must be set
    by the caller or the scenario preset. The remaining defaults are the
    reference configuration (w_attr=3.0, eta=1.0, gamma=2.0, interval
    [0.2, 0.8], stabilizer 1e-8); analytic-backend presets override them.
    """

    w: float
    w_attr: float = 3.0
    eta: float = 1.0
    gamma: float = 2.0
    r_s: float = 0.2
    r_e: float = 0.8
    eps_stab: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(value := getattr(self, field.name)):
                raise ValidationError(f"{field.name} must be finite, got {value}")
        if not (self.w > 0):
            raise ValidationError(f"w must be positive, got {self.w}")
        if not (0.0 <= self.w_attr < self.w):
            raise ValidationError(
                f"w_attr must satisfy 0 <= w_attr < w, got w_attr={self.w_attr} w={self.w}")
        if self.eta < 0:
            raise ValidationError(f"eta must be non-negative, got {self.eta}")
        if not (self.gamma > 0):
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not (0.0 <= self.r_s <= 1.0 and 0.0 <= self.r_e <= 1.0):
            raise ValidationError(f"r_s, r_e must lie in [0,1], got {self.r_s}, {self.r_e}")
        if not (self.r_s < self.r_e):
            raise ValidationError(f"r_s must be < r_e, got {self.r_s} >= {self.r_e}")
        if not (self.eps_stab > 0):
            raise ValidationError(f"eps_stab must be positive, got {self.eps_stab}")


@dataclass(frozen=True)
class StepPosition:
    """Denoising progress: step index i in [0, total-1], counted from the
    noisiest step."""

    index: int
    total: int

    def __post_init__(self):
        if self.total < 2:
            raise ValidationError(f"total steps must be >= 2, got {self.total}")
        if not (0 <= self.index <= self.total - 1):
            raise ValidationError(
                f"step index must lie in [0, {self.total - 1}], got {self.index}")

    @property
    def progress(self) -> float:
        return self.index / (self.total - 1)


@dataclass(frozen=True)
class RepulsionDiagnostics:
    """Per-step repulsion diagnostics, always computed even when lambda_t=0 so
    ablation and sweep tooling can see the counterfactual alignment signal."""

    s_t: float
    n_t: float
    alpha_t: float
    lambda_t: float
    collinearity_residual: float

    def __post_init__(self):
        if not (self.n_t > 0):
            raise ValidationError(f"n_t must be positive, got {self.n_t}")
        if not (0.0 <= self.alpha_t <= 1.0):
            raise ValidationError(f"alpha_t must lie in [0,1], got {self.alpha_t}")
        if self.lambda_t < 0:
            raise ValidationError(f"lambda_t must be non-negative, got {self.lambda_t}")
        if (self.s_t <= 0 or self.alpha_t == 0.0) and self.lambda_t != 0.0:
            raise ValidationError("lambda_t must be 0 whenever s_t <= 0 or alpha_t == 0")
        if not (0.0 <= self.collinearity_residual <= 1.0):
            raise ValidationError(
                f"collinearity_residual must lie in [0,1], got {self.collinearity_residual}")


def _require_same_shape(*objs) -> tuple[int, ...]:
    shape = objs[0].shape
    for o in objs[1:]:
        if o.shape != shape:
            raise ShapeMismatchError(f"shape mismatch: {o.shape} vs {shape}")
    return shape


# The DCR equations over (N, D) rows or one (D,) latent, with per-row results.
def _cfg_delta(eps_neg: np.ndarray, eps_text: np.ndarray, w) -> np.ndarray:
    return w * (eps_text - eps_neg)


def _drift(eps_neg, eps_attr, delta_ref, w_attr) -> np.ndarray:
    return w_attr * (eps_attr - eps_neg) - delta_ref


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Stacked matmul rounds each row exactly as the 1-D ``a @ b``; einsum does not.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _projection(drift: np.ndarray, delta_ref: np.ndarray, alpha_t, cfg: GuidanceConfig):
    """s_t, ||drift||^2, n_t and the rectified lambda_t."""
    s_t = _row_dot(drift, delta_ref)
    na2 = _row_dot(drift, drift)
    n_t = na2 + cfg.eps_stab
    # Python's max(s_t, 0.0), which keeps -0.0 (np.maximum does not)
    lambda_t = alpha_t * cfg.eta * np.where(0.0 > s_t, 0.0, s_t) / n_t
    return s_t, na2, n_t, lambda_t


def _residual(drift: np.ndarray, delta_ref: np.ndarray, s_t, na2) -> np.ndarray:
    nd2 = _row_dot(delta_ref, delta_ref)
    # Rows with a zero norm divide by 1 instead, so they raise no warning;
    # the last line overwrites their value.
    orth = drift - (s_t / np.where(nd2 == 0.0, 1.0, nd2))[..., None] * delta_ref
    residual = np.minimum(
        np.sqrt(_row_dot(orth, orth)) / np.where(na2 == 0.0, 1.0, np.sqrt(na2)), 1.0)
    return np.where(na2 == 0.0, 0.0, np.where(nd2 == 0.0, 1.0, residual))


def _correct(delta_ref: np.ndarray, lambda_t, drift: np.ndarray) -> np.ndarray:
    """delta_ref - lambda_t * drift, and delta_ref bitwise where lambda_t == 0."""
    lambda_t = np.asarray(lambda_t)
    return np.where((lambda_t == 0.0)[..., None], delta_ref,
                    delta_ref - lambda_t[..., None] * drift)


def cfg_update(eps_uncond: NoisePrediction, eps_text: NoisePrediction,
               w: float) -> GuidanceUpdate:
    """Classifier-free guidance update w * (eps_text - eps_uncond)."""
    shape = _require_same_shape(eps_uncond, eps_text)
    if not (w > 0):
        raise ValidationError(f"w must be positive, got {w}")
    return GuidanceUpdate(_cfg_delta(eps_uncond.values, eps_text.values, w), shape)


def target_prediction(eps_uncond: NoisePrediction,
                      delta: GuidanceUpdate) -> NoisePrediction:
    """Guided prediction eps_uncond + delta."""
    shape = _require_same_shape(eps_uncond, delta)
    return NoisePrediction(values=eps_uncond.values + delta.values, shape=shape)


def probe_prediction(eps_uncond: NoisePrediction, eps_attr: NoisePrediction,
                     w_attr: float) -> NoisePrediction:
    """Attractor probe at reduced scale: eps_uncond + w_attr*(eps_attr - eps_uncond)."""
    shape = _require_same_shape(eps_uncond, eps_attr)
    if w_attr < 0:
        raise ValidationError(f"w_attr must be non-negative, got {w_attr}")
    return NoisePrediction(
        values=eps_uncond.values + w_attr * (eps_attr.values - eps_uncond.values),
        shape=shape)


def attractor_drift(eps_probe: NoisePrediction,
                    eps_target: NoisePrediction) -> GuidanceUpdate:
    """Counterfactual drift eps_probe - eps_target (the direction of the pull
    toward the frequent completion)."""
    shape = _require_same_shape(eps_probe, eps_target)
    return GuidanceUpdate(values=eps_probe.values - eps_target.values, shape=shape)


def attractor_drift_expanded(eps_uncond: NoisePrediction, eps_text: NoisePrediction,
                             eps_attr: NoisePrediction, w: float,
                             w_attr: float) -> GuidanceUpdate:
    """Algebraically identical two-branch form of the drift,
    w_attr*(eps_attr - eps_uncond) - w*(eps_text - eps_uncond).

    Numerically preferable inside the full pipeline: the probe-minus-target
    subtraction cancels the shared unconditional term and loses all precision
    once the branch differences shrink below the uncond values' ulp.
    """
    shape = _require_same_shape(eps_uncond, eps_text, eps_attr)
    u = eps_uncond.values
    delta_ref = _cfg_delta(u, eps_text.values, w)
    return GuidanceUpdate(_drift(u, eps_attr.values, delta_ref, w_attr), shape)


def schedule_alpha(pos: StepPosition, cfg: GuidanceConfig) -> float:
    """Polynomial activation ramp, inclusive on both interval ends.

    pi = i/(T-1); returns 0 outside [r_s, r_e], else
    clip((pi - r_s)/(r_e - r_s), 0, 1) ** gamma.
    """
    pi = pos.progress
    if pi < cfg.r_s or pi > cfg.r_e:
        return 0.0
    pit = (pi - cfg.r_s) / (cfg.r_e - cfg.r_s)
    pit = min(max(pit, 0.0), 1.0)
    return pit ** cfg.gamma


def collinearity_residual(drift: GuidanceUpdate, delta_ref: GuidanceUpdate) -> float:
    """Norm of the drift after removing its projection onto delta_ref, divided
    by the drift norm; 0 when the drift vanishes, 1 when delta_ref vanishes
    while the drift does not."""
    _require_same_shape(drift, delta_ref)
    a, d = drift.values, delta_ref.values
    return float(_residual(a, d, _row_dot(a, d), _row_dot(a, a)))


def repulsion_coefficient(drift: GuidanceUpdate, delta_ref: GuidanceUpdate,
                          alpha_t: float, cfg: GuidanceConfig) -> RepulsionDiagnostics:
    """Half-rectified projection coefficient and full diagnostics.

    s = <drift, delta_ref>; n = ||drift||^2 + eps_stab;
    lambda = alpha * eta * max(s, 0) / n.
    """
    _require_same_shape(drift, delta_ref)
    if not (0.0 <= alpha_t <= 1.0):
        raise ValidationError(f"alpha_t must lie in [0,1], got {alpha_t}")
    a, d = drift.values, delta_ref.values
    s_t, na2, n_t, lambda_t = _projection(a, d, alpha_t, cfg)
    return RepulsionDiagnostics(float(s_t), float(n_t), alpha_t, float(lambda_t),
                                float(_residual(a, d, s_t, na2)))


def corrected_update(delta_ref: GuidanceUpdate, lambda_t: float,
                     drift: GuidanceUpdate) -> GuidanceUpdate:
    """delta_ref - lambda * drift; bit-identical passthrough when lambda == 0."""
    shape = _require_same_shape(delta_ref, drift)
    if lambda_t < 0:
        raise ValidationError(f"lambda_t must be non-negative, got {lambda_t}")
    return GuidanceUpdate(_correct(delta_ref.values, lambda_t, drift.values), shape)


def dcr_guided_prediction(eps_uncond: NoisePrediction, eps_text: NoisePrediction,
                          eps_attr: NoisePrediction, pos: StepPosition,
                          cfg: GuidanceConfig
                          ) -> tuple[NoisePrediction, RepulsionDiagnostics]:
    """Full per-step pipeline; returns the corrected prediction and diagnostics.

    The one-row case of ``_guided_rows`` and ``_step_diagnostics``, with
    repulsion and probe on, at ``schedule_alpha(pos, cfg)``. The drift is
    evaluated in the expanded two-branch form (identical to probe-minus-target
    up to rounding) so the diagnostics stay meaningful when the conditional
    branches nearly coincide.
    """
    shape = _require_same_shape(eps_uncond, eps_text, eps_attr)
    alpha_t = schedule_alpha(pos, cfg)
    on = np.ones(1, dtype=bool)
    eps_star, lambda_t, s_t, drift, delta_ref = _guided_rows(
        eps_uncond.values[None], eps_text.values[None], eps_attr.values[None],
        np.asarray(alpha_t), cfg, on, on)
    s_t, n_t, residual = _step_diagnostics(drift, delta_ref, s_t, on, cfg)
    return (NoisePrediction(eps_star[0], shape),
            RepulsionDiagnostics(float(s_t[0]), float(n_t[0]), alpha_t,
                                 float(lambda_t[0]), float(residual[0])))


def _guided_rows(eps_neg: np.ndarray, eps_text: np.ndarray, eps_attr: np.ndarray,
                 alpha_t: np.ndarray, cfg: GuidanceConfig, repel: np.ndarray,
                 probe: np.ndarray) -> tuple[np.ndarray, ...]:
    """The DCR step of N stacked latents, without argument checks or the
    diagnostics only a traced run needs. The caller has checked them: (N, D)
    branch outputs (``eps_neg`` the CFG negative branch), alpha_t in [0, 1]
    of shape () or (N,), and ``repel`` and ``probe`` each a boolean (N,)
    array. Rows without ``probe`` take the plain CFG step, their ``eps_attr``
    rows ignored; rows without ``repel`` have lambda_t zeroed and not
    applied.

    Returns what the step computes anyway: ``eps_star`` (N, D), the masked
    ``lambda_t`` (N,), the unmasked ``s_t`` (N,), and the ``drift`` and
    ``delta_ref`` (N, D) that ``_step_diagnostics`` turns into the rest of
    the diagnostics."""
    delta_ref = _cfg_delta(eps_neg, eps_text, cfg.w)
    drift = _drift(eps_neg, eps_attr, delta_ref, cfg.w_attr)
    s_t, _, n_t, lambda_t = _projection(drift, delta_ref, alpha_t, cfg)
    lambda_t = np.where(probe & (repel | (lambda_t == 0.0)), lambda_t, 0.0)
    return eps_neg + _correct(delta_ref, lambda_t, drift), lambda_t, s_t, drift, delta_ref


def _step_diagnostics(drift: np.ndarray, delta_ref: np.ndarray, s_t: np.ndarray,
                      probe: np.ndarray, cfg: GuidanceConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe-masked s_t, n_t and collinearity residual of the steps whose
    drift, delta_ref (..., D) and unmasked s_t (...,) ``_guided_rows``
    returned, over any leading axes. ``probe`` is a boolean array that
    broadcasts against s_t; rows without a probe get the diagnostics of a
    zero drift."""
    na2 = _row_dot(drift, drift)
    n_t = na2 + cfg.eps_stab
    residual = _residual(drift, delta_ref, s_t, na2)
    return (np.where(probe, s_t, 0.0), np.where(probe, n_t, cfg.eps_stab),
            np.where(probe, residual, 0.0))
