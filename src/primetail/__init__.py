"""Prime tuple singular series, window count statistics, and sieve bounds."""

from .errors import CoverageError, InadmissibleModulusError, ResourceError
from .primes import (
    PrimalityTable,
    WindowHistogram,
    count_tuple_hits,
    sieve_range,
    vonmangoldt,
    window_counts,
)
from .singular import (
    SingularSeriesValue,
    Tuple,
    is_admissible,
    jensen_split_bound,
    local_factor,
    residue_classes,
    singular_series,
    tail_log_bound,
)
from .averages import (
    EstimateWithError,
    ValueWithError,
    allk_bound,
    tkh_exact,
    tkh_monte_carlo,
    tkh_pair_fast,
)
from .moments import (
    MomentReport,
    TailReport,
    biggerk_bound,
    corollary_bound,
    empirical_moment,
    exact_count,
    moment_report,
    poisson_pmf,
    poisson_tail,
    predicted_moment,
    stirling2,
    surjection_count,
    tail_count,
    tail_report,
)
from .hl import HLReport, hl_error, hl_sweep, li_k
from .selberg import (
    SieveReport,
    big_G,
    big_W,
    g_value,
    gamma_cross_check,
    omega_constants,
    omega2_deviation,
    resolve_z,
    sieve_report,
    sieve_upper_bound,
    theorem_bound,
)

__version__ = "0.1.0"
