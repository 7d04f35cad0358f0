"""Sieved prime-factor statistics and ergodic averages along Omega(n).

Importing the package loads no library module, and so no numpy: the first
request for an exported name, or for `cli`, loads every module at once
(PEP 562), so `omegalab.X` and `from omegalab import X` work as usual.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "averages": ("AverageScheme", "EKNormalizer", "EKReport", "RealTestFunction",
                 "average_along_omega", "correlation_sum", "ek_report", "ek_weighted_average",
                 "residue_class_density", "smoothed_indicator", "weyl_sum"),
    "counterexample": ("BlockSequence", "Checkpoints", "average_along_omega_blocks",
                       "erdos_blocks", "genericity_defect", "loglog_interval_count",
                       "oscillation_profile"),
    "dynamics": ("CircleRotation", "ExponentialOrbit", "ObservableOrbit", "exponential_orbit",
                 "parse_system", "residue_indicator_orbit", "rotation_two_points_liouville"),
    "kernels": ("active_backend",),
    "sieve": ("OmegaProfile", "liouville", "omega_profile", "pi_k_profile", "sieve_segment"),
    "twosets": ("PrimeSetPair", "construct_pair", "invariance_gap", "tk_discrepancy"),
    "weights": ("ApproximationReport", "GaussianWindowSpec", "WeightVector",
                "approximation_report", "erdos_weights", "exact_weights",
                "extrapolated_average", "gaussian_weights", "window_for"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]

_loading = False


def __getattr__(name):
    global _loading
    # A request made while the modules load gets AttributeError, never a
    # nested load over partly initialised modules; for `from . import kernels`
    # in sieve.py that sends the import system to the submodule.
    if _loading or not (name == "cli" or name in __all__):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _loading = True
    try:
        for module, names in _EXPORTS.items():
            module = importlib.import_module(f"{__name__}.{module}")
            globals().update((export, getattr(module, export)) for export in names)
        # binds the library in cli too, so its handlers also run without main
        importlib.import_module(f"{__name__}.cli")._load_library()
    finally:
        _loading = False
    return globals()[name]
