"""Guided-diffusion sampling with counterfactual attractor repulsion, an
analytic Gaussian-mixture verification backend, and an evaluation harness."""

__version__ = "0.1.0"

from .guidance import (GuidanceConfig, GuidanceUpdate, NoisePrediction,
                       RepulsionDiagnostics, StepPosition, attractor_drift,
                       cfg_update, corrected_update, dcr_guided_prediction,
                       dcr_guided_rows,
                       probe_prediction, repulsion_coefficient, schedule_alpha,
                       target_prediction)
from .sampling import (BatchItem, SamplerConfig, SchedulerKind, TrajectoryTrace,
                       Variant, run_batch, run_sampling, scheduler_step)
from .toy import (ATTRACTOR, TARGET, UNCOND, BiasScenario, MixtureSpec,
                  NoiseScheduleSpec, PromptChannel, ToyDenoiser, cosine_schedule,
                  default_scenario, epsilon_prediction, forward_noising,
                  load_scenario, mode_assignment, posterior_mean, save_scenario)

__all__ = [name for name in dir() if not name.startswith("_")]
