"""Exact counting and verification toolkit for rhombus tilings of punctured hexagons.

Three independent counting routes — closed-form products, one lattice-path
determinant, and an exact diagonal sweep over non-intersecting path families —
plus exact checks of the symmetric-function and Pfaffian identities behind
them.  All arithmetic is exact (int / Fraction); nothing here floats.
"""

from .boxcount import (
    enumerate_plane_partitions,
    macmahon_box,
    theorem1_count,
    theorem4_count,
)
from .core import (
    Partition,
    binomial,
    conjugate,
    determinant,
    integer_determinant,
    integer_pfaffian,
    pfaffian,
)
from .msf import (
    IndexSets,
    chain_5_3_check,
    conjecture5_check,
    lemma9_check,
    lemma10_check,
    minor_summation,
    theorem3_check,
    theorem3_lhs,
    theorem3_rhs,
)
from .symfun import (
    RabIndex,
    RabPair,
    generate_rab,
    lemma8_check,
    schur_bidet,
    schur_eval,
    schur_nk,
    seeded_pairs,
    seeded_points,
    vandermonde_product,
)
from .tiling import (
    LatticePoint,
    PathFamily,
    PuncturedHexagon,
    count_paths,
    count_via_path_determinants,
    enumerate_tilings,
    render_tiling_svg,
    start_end_points,
    tiling_family,
    validate_family,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "binomial",
    "conjugate",
    "determinant",
    "integer_determinant",
    "integer_pfaffian",
    "pfaffian",
    "macmahon_box",
    "enumerate_plane_partitions",
    "theorem1_count",
    "theorem4_count",
    "LatticePoint",
    "PathFamily",
    "PuncturedHexagon",
    "start_end_points",
    "count_paths",
    "enumerate_tilings",
    "tiling_family",
    "validate_family",
    "count_via_path_determinants",
    "render_tiling_svg",
    "schur_nk",
    "schur_bidet",
    "schur_eval",
    "seeded_pairs",
    "seeded_points",
    "vandermonde_product",
    "RabIndex",
    "RabPair",
    "generate_rab",
    "lemma8_check",
    "IndexSets",
    "minor_summation",
    "lemma9_check",
    "theorem3_check",
    "theorem3_lhs",
    "theorem3_rhs",
    "conjecture5_check",
    "chain_5_3_check",
    "lemma10_check",
]
