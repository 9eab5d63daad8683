"""Advice-aided permutation search: exact verification and Monte Carlo study.

Library layout:

* :mod:`permlab.perms` -- permutations, shift vectors/histograms, surgery;
* :mod:`permlab.counting` -- exact derangement/rencontres combinatorics;
* :mod:`permlab.strategies` -- hint+guess strategies and exact evaluation;
* :mod:`permlab.fields` -- partition magnets, intensities, field search;
* :mod:`permlab.structures` -- displacement-pattern counts and estimates;
* :mod:`permlab.simulate` -- seeded game simulators;
* :mod:`permlab.cli` -- the ``permlab`` command-line front end.

The names below and the submodules load on first use (PEP 562), so a
command imports only the modules it uses, and numpy only when it builds an
array.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

_EXPORTS = {
    "counting": ("derangements", "factorial", "rencontres",
                 "shift_count_pmf", "shift_pmf", "typical_max_shift"),
    "fields": ("PartitionStrategy", "aic_check", "brute_force_field",
               "deduplicate_magnets", "field_of_partition",
               "partition_from_hint", "success_upper_bound"),
    "perms": ("Permutation", "ShiftHistogram", "apply_transposition",
              "argmax_shift", "example_deck", "identity_permutation",
              "make_permutation", "shift_histogram", "shift_vector"),
    "rng": ("BatchRng",),
    "simulate": ("GameConfig", "MaxShiftReport", "SimulationReport",
                 "max_shift_distribution", "simulate_locker",
                 "simulate_needle"),
    "strategies": ("LatinSquare", "Strategy", "baseline_strategy",
                   "evaluate_success_exact", "latin_strategy",
                   "naive_strategy", "shift_strategy", "strategy_by_name"),
    "structures": ("IndexSet", "compatible_pair_stats",
                   "count_exact_displacements",
                   "count_optional_displacements",
                   "count_required_displacements", "covariance_estimate",
                   "feasible_set_stats", "is_compatible", "is_feasible",
                   "joint_shift_pmf", "joint_shift_table"),
}
_SUBMODULES = (*_EXPORTS, "cli", "enumeration", "errors", "reporting")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import(f".{_HOME[name]}", __name__), name)
        globals()[name] = value   # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return _import(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
