"""Exact counting and verification toolkit for rhombus tilings of punctured hexagons.

Three independent counting routes — closed-form products, one lattice-path
determinant, and an exact diagonal sweep over non-intersecting path families —
plus exact checks of the symmetric-function and Pfaffian identities behind
them.  All arithmetic is exact (int / Fraction); nothing here floats.

``import punchex`` loads the counting layer alone: ``boxcount``, ``core``
and ``tiling``.  The identity layer, ``msf`` and ``symfun``, is imported on
the first access to one of its names (``punchex.theorem3_check``,
``from punchex import *``), so ``punchex count`` and ``punchex render``
never load it and ``punchex verify`` loads it once.
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

# The identity layer's public names and the module that defines each; a
# module ``__getattr__`` (PEP 562) imports that module on the first access.
_IDENTITY_LAYER = {
    **dict.fromkeys(("schur_nk", "schur_bidet", "schur_eval", "seeded_pairs", "seeded_points",
                     "vandermonde_product", "RabIndex", "RabPair", "generate_rab",
                     "lemma8_check"), "symfun"),
    **dict.fromkeys(("IndexSets", "minor_summation", "lemma9_check", "theorem3_check",
                     "theorem3_lhs", "theorem3_rhs", "conjecture5_check", "chain_5_3_check",
                     "lemma10_check"), "msf"),
}

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
    *_IDENTITY_LAYER,
]


def __getattr__(name):
    """An identity-layer name, from its module, imported on first access;
    the name is then bound in the package, so later accesses skip this."""
    if name not in _IDENTITY_LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_IDENTITY_LAYER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_IDENTITY_LAYER})
