import pytest
from hypothesis import given
from hypothesis import strategies as st

from engine_oracle import pair
from hypercartan.core import PolygonDatum, canonical_key, symmetry_group
from hypercartan.goldens import golden_catalog
from reader_oracle import (
    PackedDatum,
    all_moves,
    apply_move,
    canonical_form,
    dihedral_images,
    reference_canonical_form,
)


def packed(n, pairings, lam):
    return PackedDatum.from_polygon(PolygonDatum(n, pairings, lam))


def key(p):
    """``core.canonical_key`` of a packed datum."""
    return canonical_key(p.to_polygon())


def as_key(p):
    return (p.n, p.body)


@st.composite
def random_packed(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    k = n * (n - 1) // 2
    pairings = tuple(
        draw(st.integers(min_value=-5, max_value=0)) for _ in range(k)
    )
    lam = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(n))
    return packed(n, pairings, lam)


def test_round_trip_packing():
    p = packed(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 1))
    assert p.body == (0, 3, 1, 1, 3, 0, 1, 3, 3, 1)
    assert p.to_polygon() == PolygonDatum(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 1))
    # A key decodes to a relabelling of its polygon, with the same key.
    decoded = PackedDatum(*key(p))
    assert decoded in dihedral_images(p)
    assert key(decoded) == key(p)


def test_images_of_fully_symmetric_datum_coincide():
    p = packed(4, (-2,) * 6, (1, 1, 1, 1))
    images = dihedral_images(p)
    assert len(images) == 8
    assert set(images) == {p}


def test_rotation_of_the_seven_quadrangle():
    # lambda (1,3,3,1), adjacent (0,1,0,1), diagonals (3,3)
    p = packed(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 1))
    rotated = [q for q in dihedral_images(p) if q.body[6:] == (3, 3, 1, 1)]
    assert rotated
    poly = rotated[0].to_polygon()
    assert [-pair(poly, i, i % 4 + 1) for i in range(1, 5)] == [1, 0, 1, 0]
    assert (-pair(poly, 1, 3), -pair(poly, 2, 4)) == (3, 3)


def test_images_contain_input_and_are_closed():
    p = packed(5, (0, -3, -4, -1, -1, -3, -4, 0, -3, -1), (1, 2, 2, 1, 1))
    images = dihedral_images(p)
    assert len(images) == 10
    assert p in images
    for q in set(images):
        assert set(dihedral_images(q)) == set(images)


@given(random_packed())
def test_canonical_form_is_idempotent(p):
    c = PackedDatum(*key(p))
    assert key(c) == as_key(c)


@given(random_packed())
def test_canonical_form_is_lexicographic_minimum(p):
    n, body = key(p)
    assert n == p.n
    assert body in {q.body for q in dihedral_images(p)}
    assert all(body <= q.body for q in dihedral_images(p))


@given(random_packed(), st.integers(min_value=0, max_value=11))
def test_canonical_form_is_orbit_constant(p, index):
    images = dihedral_images(p)
    assert key(images[index % len(images)]) == key(p)


@given(random_packed())
def test_orbit_size_times_symmetry_order(p):
    orbit = set(dihedral_images(p))
    assert len(orbit) * symmetry_group(p.to_polygon()) == 2 * p.n


def test_equivalence_iff_equal_canonical_forms():
    p = packed(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 1))
    q = dihedral_images(p)[3]
    other = packed(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 2))
    assert q != p
    assert key(p) == key(q)
    assert key(p) != key(other)


def test_catalog_rows_are_rotation_invariant():
    for row in golden_catalog():
        p = PackedDatum.from_polygon(row.datum())
        c = key(p)
        for image in dihedral_images(p)[:4]:
            assert key(image) == c


def test_bad_body_length_rejected():
    with pytest.raises(ValueError):
        PackedDatum(3, (0, 1, 2, 1, 1))


def test_images_follow_apply_move_order():
    for row in golden_catalog():
        d = row.datum()
        assert dihedral_images(PackedDatum.from_polygon(d)) == tuple(
            PackedDatum.from_polygon(apply_move(d, m)) for m in all_moves(d.n)
        )


def test_canonical_form_matches_apply_move_orbit_minimum():
    for row in golden_catalog():
        p = PackedDatum.from_polygon(row.datum())
        for image in dihedral_images(p):
            assert key(image) == as_key(reference_canonical_form(image))


@given(random_packed())
def test_canonical_form_matches_orbit_minimum_on_random_data(p):
    assert key(p) == as_key(canonical_form(p)) == as_key(reference_canonical_form(p))
