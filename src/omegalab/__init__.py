"""Sieved prime-factor statistics and ergodic averages along Omega(n)."""

__version__ = "0.1.0"

from .averages import (
    AverageScheme,
    EKNormalizer,
    EKReport,
    RealTestFunction,
    average_along_omega,
    correlation_sum,
    ek_report,
    ek_weighted_average,
    residue_class_density,
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
    ObservableOrbit,
    exponential_orbit,
    parse_system,
    residue_indicator_orbit,
    rotation_two_points_liouville,
)
from .kernels import active_backend
from .sieve import (
    OmegaProfile,
    liouville,
    omega_profile,
    omega_profiles,
    pi_k_profile,
    sieve_segment,
)
from .twosets import (
    PrimeSetPair,
    construct_pair,
    invariance_gap,
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
    window_for,
)
