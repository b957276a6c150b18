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


def __getattr__(name: str):
    # The engine's exports load with it on first use, so that importing
    # ``core`` or ``goldens`` does not import the search.
    if name in __all__:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
