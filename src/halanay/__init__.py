"""Mittag-Leffler decay certificates for fractional-order delay systems.

The package certifies decay of Caputo-derivative linear systems with
bounded time-varying delays along three routes (column sums of an
order-preserving system, a pointwise matrix inequality, or a scalar
comparison inequality given directly), each reduced to one sampled
scalar inequality. It also evaluates the two-parameter Mittag-Leffler
function on the real line, integrates the systems directly for
validation, and wraps it all in a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ExprEvalError,
    ExprSyntaxError,
    HalanayError,
    InfeasiblePointError,
    MlfDomainError,
    MlfOverflowError,
    SeriesCapError,
    StepSizeError,
    StructureError,
)
from .expr import TimeExpr, parse
from .mlf import ml, ml_array
from .halanay import (
    ConditionVerdict,
    HalanayCertificate,
    HalanayInput,
    ScanGrid,
    certify,
    classify_conditions,
    envelope,
    lambda_at,
)
from .positivity import (
    DelaySystem,
    PositivityVerdict,
    certify_positive,
    column_sums,
    initial_amplitude,
    structure_check,
)
from .lmi import LmiReport, certify_lmi, lmi_block, max_eigen_sym
from .fdde import (
    EnvelopeCheck,
    SolverConfig,
    Trajectory,
    caputo_l1,
    check_envelope,
    lyapunov_check,
    solve,
    write_csv,
)
from .cli import RunConfig, emit_plot_script, load_config, run

__all__ = [
    "__version__",
    "ConfigError",
    "ExprEvalError",
    "ExprSyntaxError",
    "HalanayError",
    "InfeasiblePointError",
    "MlfDomainError",
    "MlfOverflowError",
    "SeriesCapError",
    "StepSizeError",
    "StructureError",
    "TimeExpr",
    "parse",
    "ml",
    "ml_array",
    "ConditionVerdict",
    "HalanayCertificate",
    "HalanayInput",
    "ScanGrid",
    "certify",
    "classify_conditions",
    "envelope",
    "lambda_at",
    "DelaySystem",
    "PositivityVerdict",
    "certify_positive",
    "column_sums",
    "initial_amplitude",
    "structure_check",
    "LmiReport",
    "certify_lmi",
    "lmi_block",
    "max_eigen_sym",
    "EnvelopeCheck",
    "SolverConfig",
    "Trajectory",
    "caputo_l1",
    "check_envelope",
    "lyapunov_check",
    "solve",
    "write_csv",
    "RunConfig",
    "emit_plot_script",
    "load_config",
    "run",
]
