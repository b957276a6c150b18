"""Dihedral-orbit canonical forms for polygon data.

Two labelled polygons describe the same solution when one is a rotation
or reflection of the other, so the catalog is deduplicated by a normal
form: the lexicographically smallest packed encoding over the whole
dihedral orbit.  This is deterministic regardless of search order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PolygonDatum, dihedral_relabellers, pair_count


@dataclass(frozen=True)
class PackedDatum:
    """Flat encoding: all -(delta_j, delta_k) for j < k in packed order, then lambdas."""

    n: int
    body: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.body) != pair_count(self.n) + self.n:
            raise ValueError("packed body has the wrong length")

    @classmethod
    def from_polygon(cls, d: PolygonDatum) -> "PackedDatum":
        return cls(d.n, tuple(-p for p in d.pairings) + d.lam)

    def to_polygon(self) -> PolygonDatum:
        k = pair_count(self.n)
        return PolygonDatum(
            self.n, tuple(-v for v in self.body[:k]), self.body[k:]
        )


def canonical_form(p: PackedDatum) -> PackedDatum:
    """Lexicographically smallest element of the dihedral orbit of p."""
    body = min(relabel(p.body) for relabel in dihedral_relabellers(p.n))
    return PackedDatum(p.n, body)
