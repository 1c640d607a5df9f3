"""Constrained sampling from latent score models via proximal corrections."""

__version__ = "0.1.0"

from .schedules import NoiseSchedule, make_schedule  # noqa: F401
from .scores import (MlpScoreConfig, ScoreField, dsm_loss,  # noqa: F401
                     gaussian_mixture_field, linear_gaussian_field,
                     log_density, score, standard_normal_field, train_score)
from .decoders import (DecoderMap, decode, estimate_lipschitz,  # noqa: F401
                       linear_decoder, mlp_decoder, random_linear_decoder,
                       random_mlp_decoder, vjp)
from .constraints import (CentroidModel, ConstraintSpec,  # noqa: F401
                          centroid_constraint, centroid_trigger,
                          custom_constraint, dist_to_set, fit_centroid_model,
                          halfspace, l2_ball, box, porosity_constraint,
                          project_exact, prox, violation)
from .alm import AlmReport, AlmState, alm_project  # noqa: F401
from .dpo import (DpoConfig, Simulator, design_loop, dpo_loss_grad,  # noqa: F401
                  linear_simulator, make_simulator, piecewise_simulator,
                  saturating_simulator, smoothed_grad, smoothed_value)
from .samplers import (SampleTrace, SamplerConfig,  # noqa: F401
                       langevin_step, sample, chain_rng)
from .diagnostics import (BoundReport, GaussianFit,  # noqa: F401
                          check_feasibility_contraction, check_fidelity_drift,
                          fit_gaussian, frechet_distance, gaussian_kl)
from .runner import (RunConfig, RunManifest, load_config,  # noqa: F401
                     render_grid, rerun_from_manifest, run_design,
                     run_experiment)
