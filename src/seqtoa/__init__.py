"""Sequential one-way TOA localization of a moving target against a mobile
anchor network that broadcasts uncertain position/clock information.

The package is organized as:

* :mod:`seqtoa.model` - domain types, forward TOA model, frame simulation;
* :mod:`seqtoa.estimator` - the two-step weighted least-squares estimator
  (column-equilibrated QR linear stage, Gauss-Newton retraction), run over
  stacks of frames;
* :mod:`seqtoa.analysis` - CRLB under anchor uncertainty, predicted
  estimator covariance;
* :mod:`seqtoa.baselines` - Gauss-Newton MLE and the static two-step solver;
* :mod:`seqtoa.montecarlo` - seeded experiment schemes and CSV emission;
* :mod:`seqtoa.cli` - command-line front end (``seqtoa``).
"""

from .analysis import CrlbResult, FimBlocks, analytic_cov, crlb_target, fim_blocks, toa_gradients
from .baselines import StaticTswlsResult, mle_batch, mle_estimate, tswls_static_batch, tswls_static_estimate
from .errors import (
    ConditioningError,
    DegenerateGeometryError,
    EstimationError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    UnderdeterminedError,
)
from .estimator import (
    DesignSystem,
    ErrorModel,
    EstimateReport,
    Estimates,
    FrameStack,
    WlsSolution,
    build_design,
    build_error_model,
    estimate,
    estimate_batch,
    estimate_degraded,
    gauss_newton_refine,
    solve_wls_qr,
    theta_jacobian,
    theta_model,
    whitening_matrix,
)
from .model import (
    C_LIGHT,
    Agents,
    Diagnostic,
    NoiseSpec,
    ObservedFrame,
    Scenario,
    TargetState,
    db_to_variance,
    exact_frame,
    forward_toa,
    simulate_frame,
    validate_scenario,
    variance_to_db,
)
from .montecarlo import (
    ExperimentSpec,
    TopologyBounds,
    TrialStats,
    fixed_topology,
    run_trials,
    sample_random_topology,
    write_cdf_csv,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "Agents",
    "ConditioningError",
    "CrlbResult",
    "DegenerateGeometryError",
    "DesignSystem",
    "Diagnostic",
    "ErrorModel",
    "EstimateReport",
    "Estimates",
    "EstimationError",
    "ExperimentSpec",
    "FimBlocks",
    "FrameStack",
    "NoiseSpec",
    "NotPositiveDefiniteError",
    "ObservedFrame",
    "RankDeficiencyError",
    "Scenario",
    "StaticTswlsResult",
    "TargetState",
    "TopologyBounds",
    "TrialStats",
    "UnderdeterminedError",
    "WlsSolution",
    "analytic_cov",
    "build_design",
    "build_error_model",
    "crlb_target",
    "db_to_variance",
    "estimate",
    "estimate_batch",
    "estimate_degraded",
    "exact_frame",
    "fim_blocks",
    "fixed_topology",
    "forward_toa",
    "gauss_newton_refine",
    "mle_batch",
    "mle_estimate",
    "run_trials",
    "sample_random_topology",
    "simulate_frame",
    "solve_wls_qr",
    "theta_jacobian",
    "theta_model",
    "toa_gradients",
    "tswls_static_batch",
    "tswls_static_estimate",
    "validate_scenario",
    "variance_to_db",
    "whitening_matrix",
    "write_cdf_csv",
    "write_sweep_csv",
]
