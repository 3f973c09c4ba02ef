"""Integer partition counts p(n), exactly and through analysis.

The package has three computation routes for p(n) plus the machinery the
analytic route rests on:

* :mod:`partitions.exact` -- pentagonal-number recurrence (exact integers),
  an independent DP oracle, and a persistent value cache.
* :mod:`partitions.rademacher` -- the convergent series with certified
  rounding to the exact integer.
* :mod:`partitions.asymptotics` -- the leading asymptotic L(n) and error
  diagnostics.
* :mod:`partitions.dedekind`, :mod:`partitions.eta` -- exact Dedekind sums,
  the A_k exponential sums, and numerical verifiers for the eta and
  generating-function transformation laws.
* :mod:`partitions.farey`, :mod:`partitions.bessel` -- the contour geometry
  (Farey fractions, Ford circles, w-plane chords) and the modified Bessel
  function behind the series terms.
"""

from .asymptotics import (
    TABLE_NS,
    AsymptoticRow,
    display_eps,
    leading_term,
    relative_error_table,
    tail_ratio_bound,
    zeta_three_halves,
)
from .bessel import bessel_i_3_2_closed, bessel_i_series
from .dedekind import a_k, dedekind_sum, exp_i_pi_rational, reciprocity_defect
from .eta import (
    EtaCheckReport,
    conjugate_inverse,
    eta,
    generating_function,
    verify_eta,
    verify_f_transform,
)
from .exact import (
    ORACLE_LIMIT,
    CacheFormatError,
    PartitionCache,
    PentagonalPair,
    cache_load,
    cache_save,
    p_exact,
    p_oracle_dp,
    partition_table_dp,
    pentagonal,
)
from .farey import (
    FordCircle,
    QPoint,
    TangencyPair,
    WChord,
    arc_length_bound_check,
    chord_bounds_check,
    farey_neighbors_check,
    farey_sequence,
    ford_circle,
    ford_tangency_class,
    rademacher_path,
    tangency_points,
    w_chord,
)
from .precision import DEFAULT_CONTEXT, PrecisionContext
from .rademacher import (
    CertificationError,
    SeriesReport,
    SeriesTerm,
    alpha,
    default_precision,
    p_series,
    r_k,
    terms_needed,
    truncation_bound,
)

__version__ = "0.1.0"

__all__ = [
    "TABLE_NS",
    "AsymptoticRow",
    "display_eps",
    "leading_term",
    "relative_error_table",
    "tail_ratio_bound",
    "zeta_three_halves",
    "bessel_i_3_2_closed",
    "bessel_i_series",
    "a_k",
    "dedekind_sum",
    "exp_i_pi_rational",
    "reciprocity_defect",
    "EtaCheckReport",
    "conjugate_inverse",
    "eta",
    "generating_function",
    "verify_eta",
    "verify_f_transform",
    "ORACLE_LIMIT",
    "CacheFormatError",
    "PartitionCache",
    "PentagonalPair",
    "cache_load",
    "cache_save",
    "p_exact",
    "p_oracle_dp",
    "partition_table_dp",
    "pentagonal",
    "FordCircle",
    "QPoint",
    "TangencyPair",
    "WChord",
    "arc_length_bound_check",
    "chord_bounds_check",
    "farey_neighbors_check",
    "farey_sequence",
    "ford_circle",
    "ford_tangency_class",
    "rademacher_path",
    "tangency_points",
    "w_chord",
    "DEFAULT_CONTEXT",
    "PrecisionContext",
    "CertificationError",
    "SeriesReport",
    "SeriesTerm",
    "alpha",
    "default_precision",
    "p_series",
    "r_k",
    "terms_needed",
    "truncation_bound",
    "__version__",
]
