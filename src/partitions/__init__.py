"""Integer partition counts p(n), exactly and through analysis.

The package has three computation routes for p(n) plus the machinery the
analytic route rests on:

* :mod:`partitions.exact` -- pentagonal-number recurrence (exact integers),
  an independent DP oracle, and a persistent value cache.
* :mod:`partitions.rademacher` -- the convergent series with certified
  rounding to the exact integer, and its A_k exponential sums by Selberg's
  formula, next to the error model that counts their operations.
* :mod:`partitions.asymptotics` -- the leading asymptotic L(n) and error
  diagnostics.
* :mod:`partitions.dedekind`, :mod:`partitions.modular` -- exact Dedekind
  sums, the integer roots of Selberg's formula, and numerical verifiers for
  the eta and generating-function transformation laws.
* :mod:`partitions.farey`, :mod:`partitions.bessel` -- the contour geometry
  (Farey fractions, Ford circles, w-plane chords) and the modified Bessel
  function behind the series terms.

Submodules load on first use (PEP 562), so ``import partitions.exact``,
``import partitions.dedekind``, ``import partitions.farey`` and
``partitions exact``, ``dedekind``, ``farey``, ``ford`` skip mpmath.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; __all__ and the lookup table derive from it
_EXPORTS = {
    "asymptotics": "TABLE_NS AsymptoticRow display_eps error_row error_table_csv leading_term "
                   "relative_error_table tail_ratio_bound zeta_three_halves",
    "bessel": "bessel_i_3_2_closed bessel_i_series",
    "dedekind": "dedekind_sum reciprocity_defect selberg_roots",
    "exact": "ORACLE_LIMIT CacheFormatError PartitionCache PentagonalPair cache_load "
             "cache_lookup cache_save p_exact p_oracle_dp partition_table_dp pentagonal",
    "farey": "FordCircle QPoint TangencyPair WChord arc_length_bound_check "
             "chord_bounds_check farey_neighbors_check farey_sequence ford_circle "
             "ford_tangency_class rademacher_path tangency_points w_chord",
    "modular": "EtaCheckReport conjugate_inverse eta exp_i_pi_rational generating_function "
               "verify_eta verify_f_transform",
    "precision": "DEFAULT_CONTEXT PrecisionContext",
    "rademacher": "CertificationError SeriesReport SeriesTerm a_k alpha default_precision "
                  "p_series r_k terms_needed truncation_bound",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
