"""Verification laboratory for finite partition combinatorics.

Exact enumeration and counting over set partitions in restricted growth
string form, the coarsening order and its counting formulas, windowed
prefix calculus for infinite partitions, witness searches for two
finite pigeonhole lemmas, and grid-to-partition reductions, all behind
a scriptable command line.
"""

import sys as _sys

__version__ = "0.1.0"

# each submodule and the public names it exports; __getattr__ imports a submodule
# the first time one of its names is used, so `import partlab` compiles none of them
_EXPORTS = {
    "counting": (
        "CombRatioBound",
        "CoarseningProfile",
        "comb_ratio_bound",
        "count_extensions",
        "entropy_bounds",
        "profile_of",
        "ratio_R",
    ),
    "errors": (
        "BudgetError",
        "CheckError",
        "DomainError",
        "InsufficientTruncationError",
        "NotACutError",
        "PartlabError",
        "ThresholdError",
    ),
    "e1": (
        "AllocationScheme",
        "BinaryGrid",
        "blowup_inverse",
        "blowup_iso",
        "cs_decode",
        "cs_encode",
        "e1_window_equiv",
        "reduce_f",
        "round_robin_alloc",
    ),
    "partitions": (
        "SetPartition",
        "coarsenings_of",
        "count_equipartitions",
        "count_partitions",
        "enumerate_equipartitions",
        "enumerate_partitions",
        "is_coarsening",
        "meet_refine",
    ),
    "prefixes": (
        "PartitionPrefix",
        "approx_r",
        "cube_member",
        "depth",
        "induced_coarsening_h",
        "mu_sequence",
        "project_g",
        "trace",
    ),
    "reports": (
        "WitnessReport",
    ),
    "tree": (
        "BlockPartitionKN",
        "enumerate_sections",
        "find_section_witness",
        "least_N_below_one",
        "section_bound",
        "verify_tree",
    ),
    "witness": (
        "Adversarial",
        "EMapTable",
        "Exhaustive",
        "Sampled",
        "bad_pairs",
        "find_witness",
        "fusion_conditions_hold",
        "fusion_step",
        "min_threshold_comb",
        "verify_comb",
        "witness_is_valid",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Resolve a public name or a submodule on first use (PEP 562) and keep it."""
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_OWNER[name]), name)
    return value


def _submodule(module: str):
    # the __import__ builtin, not importlib, which a bare interpreter has not loaded
    full = f"{__name__}.{module}"
    __import__(full)
    return _sys.modules[full]


def __dir__():
    return sorted(set(globals()) | set(__all__))
