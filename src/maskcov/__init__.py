"""Masked (partial) covariance estimation with verified error bounds.

The estimator is the Hadamard product M . Sigma_hat_n of a fixed
symmetric mask with the sample covariance matrix.  The package couples
the estimator with closed-form operator-norm error bounds, Monte Carlo
oracles for the probabilistic lemmas behind them, and a seeded
experiment harness that reproduces their scaling laws.
"""

from types import ModuleType as _ModuleType

from .bounds import bound_minor, bound_refined, bound_theorem_main
from .errors import (CheckFailedError, InputError, MaskcovError, NotPSDError,
                     NumericalError)
from .harness import (ExperimentConfig, ScalingReport, Trials, emit_results,
                      fit_scaling, read_results, run_error_experiment)
from .linalg import norm_one_two, spectral_norm, symmetrize
from .masks import (Mask, banded_mask, custom_mask, mask_from_spec, minor_mask,
                    taper_mask, threshold_mask)
from .sampler import (GaussianModel, SampleBatch, SeedSpec,
                      decoupled_covariance, draw_samples, mix64,
                      sample_covariance, sample_covariance_centered)
from .verify import (LemmaReport, circle_net, compare_means,
                     concentration_check, decoupling_check, enum_regular,
                     max_bilinear_regular, net_norm_bound_check,
                     reg_norm_bound_check, sigma_x_lipschitz_check,
                     sigma_x_mean_check)

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind
# as package attributes are not part of the API
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
