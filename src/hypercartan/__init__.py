"""Exact-arithmetic classification of rank-3 hyperbolic generalized
Cartan matrices of elliptic (and parabolic) type with a lattice Weyl
vector, twisted to symmetric matrices."""

from .core import (
    InvalidRealizationError,
    PolygonDatum,
    RealizationFlags,
    TableDecodeError,
    canonical_key,
    cartan_matrix,
    classify_flags,
    polygon_table,
    symmetrized_cartan,
    symmetry_group,
    table_to_datum,
    verify_realization,
)
from .engine import (
    CatalogRecord,
    ChainState,
    EnumerationResult,
    ParabolicReport,
    collect_radii,
    extend_step,
    partition_closed,
    run_elliptic,
    run_parabolic,
    seed_triples,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogRecord",
    "ChainState",
    "EnumerationResult",
    "InvalidRealizationError",
    "ParabolicReport",
    "PolygonDatum",
    "RealizationFlags",
    "TableDecodeError",
    "canonical_key",
    "cartan_matrix",
    "classify_flags",
    "collect_radii",
    "extend_step",
    "partition_closed",
    "polygon_table",
    "run_elliptic",
    "run_parabolic",
    "seed_triples",
    "symmetrized_cartan",
    "symmetry_group",
    "table_to_datum",
    "verify_realization",
]
