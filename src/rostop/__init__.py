"""Backward-induction analysis of random-order stopping on a three-point
hard instance: exact finite-size dynamic program, closed-form asymptotics,
a certified hardness bound, exhaustive and Monte Carlo oracles, and a
parameter sweep."""

from .instance import (
    ConditionCheck,
    ConditionReport,
    InfeasibleInstanceError,
    InstanceParams,
    ParameterError,
    ValueDistribution,
    make_instance,
    validate,
)
from .dp import (
    AcceptanceTimes,
    ConsistencyError,
    ThresholdTables,
    acceptance_times,
    compute_thresholds,
    gambler_prophet_ratio,
    optimal_value,
    write_threshold_csv,
)
from .prophet import prophet_exact, prophet_limit
from .asymptotics import (
    AsymptoticProfile,
    DiagnosticCheck,
    DiagnosticsReport,
    k_star,
    lambda_mu_star,
    q_eval,
    verify_bound_sandwich,
)
from .bound import (
    BracketError,
    CertificationError,
    ErrorCertificate,
    HardnessBound,
    MaxIterationsError,
    certify,
    hardness_bound,
)
from .oracle import (
    OracleSizeError,
    SimulationReport,
    exhaustive_optimal_value,
    simulate_policy,
    simulate_prophet,
)
from .sweep import (
    SweepRecord,
    SweepSizeError,
    SweepSpec,
    dp_cross_check,
    refine,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
