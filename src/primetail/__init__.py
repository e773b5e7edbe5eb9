"""Prime tuple singular series, window count statistics, and sieve bounds.

Every public name is re-exported here, but lazily (PEP 562): the module
that defines a name is imported on its first access, so a process loads
only the modules it uses, and importing the package loads no NumPy.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys(("CoverageError", "InadmissibleModulusError", "ResourceError"), "errors"),
    **dict.fromkeys(("PrimalityTable", "WindowHistogram", "count_tuple_hits", "sieve_range",
                     "window_counts"), "primes"),
    **dict.fromkeys(("SingularSeriesValue", "Tuple", "is_admissible", "jensen_split_bound",
                     "singular_series", "tail_log_bound"), "singular"),
    **dict.fromkeys(("EstimateWithError", "ValueWithError", "allk_bound", "tkh_exact",
                     "tkh_monte_carlo", "tkh_pair_fast"), "averages"),
    **dict.fromkeys(("MomentReport", "TailReport", "biggerk_bound", "corollary_bound",
                     "empirical_moment", "exact_count", "moment_report", "poisson_pmf",
                     "poisson_tail", "predicted_moment", "stirling2", "tail_count",
                     "tail_report"), "moments"),
    **dict.fromkeys(("HLReport", "hl_error", "hl_sweep", "li_k"), "hl"),
    **dict.fromkeys(("SieveReport", "big_G", "gamma_cross_check", "omega_constants",
                     "resolve_z", "sieve_report", "theorem_bound"), "selberg"),
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name from its module, imported now; a submodule by its name."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
