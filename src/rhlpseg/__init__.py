"""Time-series segmentation and denoising.

Two model families over univariate signals:

- hidden-logistic-process regression: K polynomial components mixed through a
  time-varying softmax, fit by EM with an exact-Hessian Newton (IRLS) inner
  solver (`em_fit`), with denoising, hard labeling, and BIC model selection;
- piecewise polynomial regression: globally optimal segmentation by dynamic
  programming (`fisher_dp`) and a faster iterative variant
  (`iterative_fisher`, `multi_start_iterative`).

A benchmark harness (`rhlpseg.simulate`) and a CLI (`rhlpseg.cli`) drive the
simulation study.
"""
from .core import (
    RELATIVE_VARIANCE_FLOOR,
    GaussianComponent,
    Signal,
    TimeMap,
    design_matrix,
    gaussian_log_density,
    weighted_least_squares,
)
from .piecewise import (
    Partition,
    PiecewiseFit,
    build_cost_matrix,
    fisher_dp,
    iterative_fisher,
    multi_start_iterative,
    segment_cost,
    uniform_partition,
)
from .rhlp import (
    FitReport,
    LogisticProcess,
    RhlpParams,
    bic,
    denoise,
    e_step,
    em_fit,
    hard_labels,
    logistic_proportions,
    m_step_regression,
    mixture_log_likelihood,
    n_free_parameters,
    select_model,
)
from .simulate import (
    SCENARIOS,
    SITUATION_1,
    SITUATION_2,
    PiecewiseScenario,
    denoising_error,
    misclassification_rate,
    run_benchmark,
    simulate_piecewise,
    simulate_rhlp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
