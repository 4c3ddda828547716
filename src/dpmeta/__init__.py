"""Differentially private meta-initialization learning on convex tasks.

The library pairs a task-global private learner (noisy projected SGD with
exact closed-form calibration) with a running-average meta-learner, plus a
synthetic task environment and harness for measuring excess transfer risk
against task similarity, sample counts, task counts, and privacy budgets.
"""

from .geometry import ParamDomain, clip_norm, dist_sq, project, row_dot
from .losses import (RegularityProfile, TaskSamples, certify_smoothness,
                     finite_diff_check, logistic_grad, logistic_regularity,
                     logistic_value, quadratic_grad, quadratic_regularity,
                     quadratic_value)
from .privacy import (NoisySgdPlan, PrivacyParams, compose_sequential, group_dp,
                      make_plan, noise_variance, sample_step_noise, step_budget)
from .learners import (LearnerOutput, OgdConfig, adaptation_step_size,
                       noisy_sgd_run, ogd_run, private_step_scale)
from .meta import (MetaState, TaskRecord, meta_step, new_state,
                   run_meta_training, surrogate_loss)
from .task_env import (EnvSpec, TaskSpec, derive_seed, empirical_task_variance,
                       generate_losses, logistic_risk_gap, population_risk_gap,
                       sample_task, substream)
from .config import ConfigError, ExperimentConfig, build_config, load_config
from .harness import (ArmResult, CalibrationRecord, InternalInvariantError,
                      MetricsReport, calibrate, run_experiment, sweep,
                      write_calibration_sidecar, write_csv)

__version__ = "0.1.0"
