"""Sieved prime-factor statistics and ergodic averages along Omega(n)."""

__version__ = "0.1.0"

from .averages import (
    AverageScheme,
    EKNormalizer,
    EKReport,
    RealTestFunction,
    average,
    average_along_omega,
    correlation_sum,
    ek_report,
    ek_weighted_average,
    interval_indicator,
    log_trick_bound,
    log_trick_discrepancy,
    shifted_omega_average,
    smoothed_indicator,
    weyl_sum,
)
from .counterexample import (
    BlockSequence,
    Checkpoints,
    average_along_omega_blocks,
    erdos_blocks,
    genericity_defect,
    loglog_interval_count,
    oscillation_profile,
)
from .dynamics import (
    CircleRotation,
    ExponentialOrbit,
    FiniteRotation,
    ObservableOrbit,
    SymbolicOrbit,
    exponential_orbit,
    parse_system,
    residue_indicator_orbit,
    rotation_two_points_liouville,
)
from .kernels import active_backend
from .sieve import (
    FactorCountSegment,
    OmegaProfile,
    PiKHistogram,
    hardy_ramanujan_tail,
    liouville,
    omega_oracle,
    omega_profile,
    pi_k_histogram,
    residue_class_density,
    sieve_segment,
)
from .twosets import (
    CouplingReport,
    PrimeSetPair,
    construct_pair,
    coupling,
    dilation_sensitivity,
    invariance_gap,
    phi,
    tk_discrepancy,
)
from .weights import (
    ApproximationReport,
    GaussianWindowSpec,
    WeightVector,
    approximation_report,
    erdos_weights,
    exact_weights,
    extrapolated_average,
    gaussian_weights,
    tn_operator,
    window_for,
)
