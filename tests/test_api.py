"""The package's public surface, pinned: adding or removing a name is a deliberate edit here."""

import types

import rostop

PUBLIC_NAMES = [
    "AcceptanceTimes", "AsymptoticProfile", "BracketError", "CertificationError",
    "ConditionCheck", "ConditionReport", "ConsistencyError", "DiagnosticCheck",
    "DiagnosticsReport", "ErrorCertificate", "HardnessBound", "InfeasibleInstanceError",
    "InstanceParams", "MaxIterationsError", "OracleSizeError", "ParameterError",
    "SimulationReport", "SweepRecord", "SweepSizeError", "SweepSpec", "ThresholdTables",
    "ValueDistribution", "acceptance_times", "certify", "compute_thresholds",
    "dp_cross_check", "exhaustive_optimal_value", "gambler_prophet_ratio", "hardness_bound",
    "k_star", "lambda_mu_star", "make_instance", "optimal_value", "prophet_exact",
    "prophet_limit", "q_eval", "refine", "run_sweep", "simulate_policy", "simulate_prophet",
    "validate", "verify_bound_sandwich", "write_sweep_csv", "write_threshold_csv",
]

# Test-only wrappers and references that left the library; the references
# live on in tests/ (the segment sums in test_asymptotics).
REMOVED_NAMES = [
    "HistoryValue", "OrderingError", "conditional_expectation_asymptotic", "history_values",
    "partial_sums", "phi_closed_form", "q_derivatives",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(rostop).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_removed_names_are_gone_from_every_module():
    for module in (rostop, rostop.dp, rostop.asymptotics, rostop.oracle):
        assert not [name for name in REMOVED_NAMES if hasattr(module, name)], module.__name__
