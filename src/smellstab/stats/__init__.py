from .design import (
    BINARY,
    FAMILY_SIZES,
    DesignError,
    DesignMatrix,
    ModelSpec,
    all_model_specs,
    column_table,
    null_design,
    prepare_design,
)
from .fitbase import FitResult
from .glm import DispersionError, dispersion_statistic, fit_negbin_glm, fit_poisson
from .glmm import fit_negbin_random_intercept
from .inference import (
    InferenceError,
    bh_adjust,
    effect_sizes,
    fit_quality,
    one_sided_p,
    predict_mu,
    randomized_quantile_residuals,
)
from .kernels import inner_modes, nb2_row_terms
from .suite import (
    ALPHA,
    export_fits_json,
    export_quantile_residuals,
    export_results_csv,
    run_hypothesis_suite,
)

__all__ = [
    "BINARY", "FAMILY_SIZES", "DesignError", "DesignMatrix",
    "ModelSpec", "all_model_specs", "column_table", "null_design", "prepare_design", "FitResult",
    "DispersionError", "dispersion_statistic", "fit_negbin_glm", "fit_poisson",
    "fit_negbin_random_intercept", "InferenceError",
    "bh_adjust", "effect_sizes", "fit_quality", "one_sided_p", "predict_mu",
    "randomized_quantile_residuals", "inner_modes", "nb2_row_terms",
    "ALPHA", "export_fits_json",
    "export_quantile_residuals", "export_results_csv", "run_hypothesis_suite",
]
