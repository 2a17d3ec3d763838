"""Verification laboratory for finite partition combinatorics.

Exact enumeration and counting over set partitions in restricted growth
string form, the coarsening order and its counting formulas, windowed
prefix calculus for infinite partitions, witness searches for two
finite pigeonhole lemmas, and grid-to-partition reductions, all behind
a scriptable command line.
"""

from .counting import (
    CombRatioBound,
    CoarseningProfile,
    comb_ratio_bound,
    count_extensions,
    entropy_bounds,
    profile_of,
    ratio_R,
)
from .errors import (
    BudgetError,
    DomainError,
    InsufficientTruncationError,
    NotACutError,
    PartlabError,
    ThresholdError,
)
from .e1 import (
    AllocationScheme,
    BinaryGrid,
    blowup_inverse,
    blowup_iso,
    cs_decode,
    cs_encode,
    e1_window_equiv,
    reduce_f,
    round_robin_alloc,
)
from .partitions import (
    SetPartition,
    coarsenings_of,
    count_equipartitions,
    count_partitions,
    enumerate_equipartitions,
    enumerate_partitions,
    is_coarsening,
    meet_refine,
)
from .prefixes import (
    PartitionPrefix,
    approx_r,
    cube_member,
    depth,
    induced_coarsening_h,
    mu_sequence,
    project_g,
    trace,
)
from .reports import WitnessReport
from .tree import (
    BlockPartitionKN,
    enumerate_sections,
    find_section_witness,
    least_N_below_one,
    section_bound,
    verify_tree,
)
from .witness import (
    Adversarial,
    EMapTable,
    Exhaustive,
    Sampled,
    bad_pairs,
    find_witness,
    fusion_conditions_hold,
    fusion_step,
    min_threshold_comb,
    verify_comb,
    witness_is_valid,
)

__version__ = "0.1.0"

__all__ = [
    "SetPartition",
    "PartitionPrefix",
    "WitnessReport",
    "BinaryGrid",
    "AllocationScheme",
    "BlockPartitionKN",
    "CoarseningProfile",
    "CombRatioBound",
    "EMapTable",
    "Exhaustive",
    "Sampled",
    "Adversarial",
    "PartlabError",
    "DomainError",
    "InsufficientTruncationError",
    "NotACutError",
    "BudgetError",
    "ThresholdError",
    "enumerate_partitions",
    "enumerate_equipartitions",
    "count_partitions",
    "count_equipartitions",
    "is_coarsening",
    "meet_refine",
    "coarsenings_of",
    "profile_of",
    "count_extensions",
    "entropy_bounds",
    "ratio_R",
    "comb_ratio_bound",
    "mu_sequence",
    "approx_r",
    "trace",
    "depth",
    "cube_member",
    "induced_coarsening_h",
    "project_g",
    "bad_pairs",
    "find_witness",
    "witness_is_valid",
    "verify_comb",
    "min_threshold_comb",
    "fusion_step",
    "fusion_conditions_hold",
    "enumerate_sections",
    "find_section_witness",
    "section_bound",
    "least_N_below_one",
    "verify_tree",
    "round_robin_alloc",
    "cs_encode",
    "cs_decode",
    "e1_window_equiv",
    "reduce_f",
    "blowup_iso",
    "blowup_inverse",
]
