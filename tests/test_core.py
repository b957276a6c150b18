import re
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from engine_oracle import pair
from hypercartan import core
from hypercartan.core import (
    InvalidRealizationError,
    PolygonDatum,
    TableDecodeError,
    _divisibility_failures,
    _first_window,
    _weyl_numerators,
    _window_weyl,
    cartan_matrix,
    classify_flags,
    dihedral_relabellers,
    polygon_table,
    symmetrized_cartan,
    symmetry_group,
    table_to_datum,
    verify_realization,
)
from hypercartan.engine import run_elliptic
from hypercartan.goldens import golden_catalog, lattice_fixtures, self_check_catalog
from rational_oracle import QMatrix
from reader_oracle import (
    DihedralMove,
    NotHyperbolicError,
    all_moves,
    all_pairs_window_weyl,
    apply_move,
    assemble_gram,
    divisibility_ok,
    rank,
    reference_cartan,
    reference_relabellers,
    reference_symcartan,
    reference_symmetry_group,
    reference_table_to_datum,
    reference_verify,
    reflect,
    solve_consistent,
    stabilizer,
    weyl_vector,
)


def triangle(p12, p13, p23, lam=(1, 1, 1)):
    return PolygonDatum(3, (p12, p13, p23), lam)


# Table rows used repeatedly below (lambda row, then cyclic pairing rows).
ROW_59_2 = ((1, 2, 2), (0, 1, 2))
ROW_22 = ((2, 1, 1), (0, 1, 2))
ROW_7_QUAD = ((1, 3, 3, 1), (0, 1, 0, 1), (3, 3, 3, 3))
ROW_6 = ((1, 6, 3, 2), (0, 2, 0, 2), (3, 6, 3, 6))


def test_assemble_gram_triangle():
    d = triangle(0, -1, -2)
    assert assemble_gram(d) == QMatrix.from_rows([[2, 0, -1], [0, 2, -2], [-1, -2, 2]])


def test_assemble_gram_all_minus_two():
    d = triangle(-2, -2, -2)
    assert assemble_gram(d) == QMatrix.from_rows([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])


def test_assemble_gram_orthogonal():
    d = triangle(0, 0, 0)
    assert assemble_gram(d) == QMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_weyl_vector_twisted_triangle():
    g = QMatrix.from_rows([[2, 0, -2], [0, 2, -1], [-2, -1, 2]])
    w = weyl_vector(g, (1, 2, 2))
    assert w.coords == (Fraction(15, 2), Fraction(3), Fraction(8))
    assert w.r == Fraction(-59, 2)


def test_weyl_vector_symmetric_triangle():
    g = QMatrix.from_rows([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])
    w = weyl_vector(g, (1, 1, 1))
    assert w.coords == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert w.r == Fraction(-3, 2)


def test_weyl_vector_r_minus_22():
    g = QMatrix.from_rows([[2, 0, -2], [0, 2, -1], [-2, -1, 2]])
    assert weyl_vector(g, (2, 1, 1)).r == -22


def test_weyl_vector_rejects_definite_block():
    with pytest.raises(NotHyperbolicError):
        weyl_vector(QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (1, 1, 1))


def test_weyl_vector_substitution_property():
    rows = [[2, 0, -2], [0, 2, -1], [-2, -1, 2]]
    lam = (1, 2, 2)
    w = weyl_vector(QMatrix.from_rows(rows), lam)
    assert [sum(g * x for g, x in zip(row, w.coords)) for row in rows] == [-1, -2, -2]
    assert w.r == -sum(l * x for l, x in zip(lam, w.coords))


def test_divisibility_examples():
    assert divisibility_ok(2, 1, -2)
    assert not divisibility_ok(2, 1, -1)
    assert divisibility_ok(1, 7, -13)


def test_cartan_matrix_untwisted_equals_gram():
    d = triangle(0, -1, -2)
    a = cartan_matrix(d)
    assert QMatrix.from_rows(a) == assemble_gram(d)
    # the symmetrizer diag(1/lambda_j^2) is the identity
    assert symmetrized_cartan(d) == a


def test_cartan_matrix_a10():
    d = triangle(0, -1, -2)
    a10 = ((2, 0, -1), (0, 2, -2), (-1, -2, 2))
    assert cartan_matrix(d) == a10
    # the catalog row r=-23/2 carries the same matrix up to relabelling
    row = table_to_datum(((1, 1, 1), (0, 1, 2)))
    images = {apply_move(row, m).pairings for m in all_moves(3)}
    assert d.pairings in images


def test_cartan_matrix_twisted_entries():
    d = table_to_datum(ROW_6)
    a = cartan_matrix(d)
    assert a[1][3] == -2  # lambda_4 * g_24 / lambda_2
    assert a[3][1] == -18
    assert a[0][2] == -9
    assert a[2][0] == -1


def test_cartan_matrix_divisibility_error():
    # lambda_1 = 2 does not divide lambda_3 (delta_1, delta_3) = -1; the
    # message lists every failing ordered pair
    with pytest.raises(
        InvalidRealizationError,
        match=re.escape("divisibility fails for ordered pairs [(1, 3)]"),
    ):
        cartan_matrix(triangle(0, -1, -1, lam=(2, 1, 1)))
    with pytest.raises(
        InvalidRealizationError,
        match=re.escape("divisibility fails for ordered pairs [(1, 2), (1, 3)]"),
    ):
        cartan_matrix(triangle(-1, -1, -1, lam=(2, 1, 1)))


def test_symmetrized_cartan_untwisted():
    d = triangle(-1, -2, 0)
    assert QMatrix.from_rows(symmetrized_cartan(d)) == assemble_gram(d)


def test_symmetrized_cartan_twisted():
    d = table_to_datum(ROW_59_2)
    b = symmetrized_cartan(d)
    assert b[1][1] == 8
    assert b[1][2] == -4
    assert b[0][2] == -4


def test_symmetrized_is_scaled_gram():
    d = table_to_datum(ROW_6)
    a, b = cartan_matrix(d), symmetrized_cartan(d)
    for j in range(4):
        for k in range(4):
            assert b[j][k] == d.lam[j] * d.lam[k] * pair(d, j + 1, k + 1)
            # b = diag(lambda_j^2) a is symmetric
            assert b[j][k] == d.lam[j] ** 2 * a[j][k]


def test_reflect_negates_own_axis():
    g = QMatrix.from_rows([[2, 0, -2], [0, 2, -1], [-2, -1, 2]])
    assert reflect((0, 1, 0), 2, g) == (0, -1, 0)


def test_reflect_fixes_orthogonal_vector():
    g = QMatrix.from_rows([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    # (x, delta_1) = 0 for x = (0, 1, 1)
    assert reflect((0, 1, 1), 1, g) == (0, 1, 1)


def test_reflect_parallel_sides():
    g = QMatrix.from_rows([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
    assert reflect((0, 1, 0), 1, g) == (2, 1, 0)


@given(
    st.tuples(*(st.integers(min_value=-5, max_value=5) for _ in range(3))),
    st.integers(min_value=1, max_value=3),
)
def test_reflect_is_an_isometric_involution(x, i):
    g = QMatrix.from_rows([[2, 0, -2], [0, 2, -1], [-2, -1, 2]])

    def form(u, v):
        return sum(
            Fraction(u[a]) * g.entry(a, b) * Fraction(v[b])
            for a in range(3)
            for b in range(3)
        )

    image = reflect(x, i, g)
    assert reflect(image, i, g) == tuple(Fraction(v) for v in x)
    assert form(image, image) == form(x, x)


def test_polygon_table_triangle():
    d = table_to_datum(((1, 1, 1), (0, 1, 2)))
    assert polygon_table(d) == ((1, 1, 1), (0, 1, 2))


def test_polygon_table_quadrangle():
    d = table_to_datum(ROW_7_QUAD)
    assert polygon_table(d) == ROW_7_QUAD
    # the even-n middle row lists each antipodal pairing twice
    assert pair(d, 1, 3) == -3 and pair(d, 2, 4) == -3


@pytest.mark.parametrize(
    "n, pairings, lam, message",
    [
        (2, (-1,), (1, 1), "a polygon needs at least 3 sides"),
        (3, (-1, -2), (1, 1, 1), "wrong number of pairings"),
        (3, (-1, -2, -1), (1, 1), "wrong number of lambdas"),
        (3, (-1, -2, -1), (1, 0, 1), "lambdas must be positive"),
    ],
)
def test_polygon_datum_rejects_bad_shapes(n, pairings, lam, message):
    with pytest.raises(InvalidRealizationError, match=f"^{message}$"):
        PolygonDatum(n, pairings, lam)
    # ``_replace`` builds a new datum and checks it the same way.
    good = PolygonDatum(3, (-1, -2, -1), (1, 1, 1))
    with pytest.raises(InvalidRealizationError, match=f"^{message}$"):
        good._replace(n=n, pairings=pairings, lam=lam)


def test_table_decode_errors():
    with pytest.raises(TableDecodeError):
        table_to_datum(((1, 1, 1),))
    with pytest.raises(TableDecodeError):
        table_to_datum(((1, 1, 1), (0, -1, 2)))
    with pytest.raises(TableDecodeError):
        table_to_datum(((1, 1, 1, 1), (0, 1, 0, 1), (3, 3, 4, 3)))
    with pytest.raises(TableDecodeError):
        table_to_datum(((1, 1, 1, 1), (0, 1, 0, 1)))


def test_verify_accepts_catalog_row():
    report = verify_realization(table_to_datum(ROW_22))
    assert report.valid
    assert report.weyl_square == -22


def test_verify_rejects_tampered_lambda():
    tampered = PolygonDatum(3, table_to_datum(ROW_22).pairings, (2, 1, 2))
    report = verify_realization(tampered)
    assert not report.valid
    failed = {c.name for c in report.failures()}
    assert "divisibility" in failed


def test_verify_rejects_sharp_adjacent_pairing():
    report = verify_realization(triangle(-3, -1, -2))
    assert not report.valid
    assert "adjacent-pairings" in {c.name for c in report.failures()}


def test_verify_rejects_noncoprime_lambda():
    d = PolygonDatum(3, table_to_datum(ROW_59_2).pairings, (2, 4, 4))
    assert "coprime-lambda" in {c.name for c in verify_realization(d).failures()}


def test_verify_reports_all_failures():
    d = PolygonDatum(3, (-3, -1, -1), (2, 4, 4))
    failed = {c.name for c in verify_realization(d).failures()}
    assert {"adjacent-pairings", "coprime-lambda", "divisibility"} <= failed


def test_verify_rank_failure_on_independent_sides():
    d = PolygonDatum(4, (0,) * 6, (1, 1, 1, 1))
    failed = {c.name for c in verify_realization(d).failures()}
    assert "rank" in failed
    assert "lorentzian" in failed


def test_verify_lorentzian_failure_on_definite_triangle():
    report = verify_realization(triangle(0, 0, -1))
    failed = {c.name for c in report.failures()}
    assert failed == {"lorentzian"}
    assert report.weyl_square is not None and report.weyl_square > 0


def test_classify_flags_examples():
    d = table_to_datum(((1, 1, 1), (0, 1, 2)))
    w = verify_realization(d).weyl_square
    flags = classify_flags(d, w)
    assert (flags.kind, flags.compact, flags.untwisted) == ("elliptic", False, True)

    quad = table_to_datum(ROW_7_QUAD)
    flags = classify_flags(quad, verify_realization(quad).weyl_square)
    assert (flags.kind, flags.compact, flags.untwisted) == ("elliptic", True, False)

    square = table_to_datum(((1, 1, 1, 1), (1, 1, 1, 1), (4, 4, 4, 4)))
    flags = classify_flags(square, verify_realization(square).weyl_square)
    assert (flags.kind, flags.compact, flags.untwisted) == ("elliptic", True, True)


def test_classify_flags_rejects_positive_square():
    with pytest.raises(ValueError):
        classify_flags(triangle(0, 0, 0), Fraction(1))


@given(st.integers(min_value=0, max_value=23))
def test_classify_flags_dihedral_invariant(index):
    d = table_to_datum(ROW_6)
    moves = all_moves(d.n)
    image = apply_move(d, moves[index % len(moves)])
    w = verify_realization(d).weyl_square
    assert classify_flags(image, w) == classify_flags(d, w)


def test_symmetry_group_full_triangle():
    d = triangle(-2, -2, -2)
    # every rotation and reflection fixes it: dihedral of order 6
    assert symmetry_group(d) == 6 == len(stabilizer(d))


def test_symmetry_group_trivial():
    d = table_to_datum(((1, 1, 1), (0, 1, 2)))
    assert symmetry_group(d) == 1
    assert stabilizer(d) == [DihedralMove(0, False)]


def test_symmetry_group_right_quadrangle():
    d = PolygonDatum(4, (-2, -6, -2, -2, -6, -2), (1, 1, 1, 1))
    assert symmetry_group(d) == 8 == len(stabilizer(d))


def test_symmetry_generators_fix_datum():
    d = table_to_datum(ROW_7_QUAD)
    # only the reflection swapping sides (1,4) and (2,3) preserves the lambdas
    assert symmetry_group(d) == 2
    assert stabilizer(d) == [DihedralMove(0, False), DihedralMove(0, True)]


def test_symmetry_order_divides_2n():
    for d in (
        triangle(-2, -2, -2),
        table_to_datum(ROW_7_QUAD),
        table_to_datum(ROW_6),
    ):
        assert (2 * d.n) % symmetry_group(d) == 0


# --- the integer reader path against the slow Fraction oracle ---------------


def _assert_matches_oracle(d):
    report = verify_realization(d)
    fast = (report.checks, report.weyl_square)
    assert fast == reference_verify(d), d


def _catalog_relabellings():
    for row in golden_catalog():
        d = row.datum()
        for move in all_moves(d.n):
            yield apply_move(d, move)


def test_verify_matches_oracle_on_catalog_relabellings():
    for d in _catalog_relabellings():
        _assert_matches_oracle(d)


MALFORMED = [
    # Gram rank 2 (delta_1 = delta_2), consistent Weyl system
    (PolygonDatum(3, (2, 0, 0), (1, 1, 1)), "rank"),
    # Gram rank 2 and no rho
    (PolygonDatum(3, (-2, 0, 0), (1, 1, 1)), "weyl-vector"),
    # Gram rank 4 and 5
    (PolygonDatum(4, (0,) * 6, (1, 1, 1, 1)), "rank"),
    (PolygonDatum(5, (-1, -3, -5, 0, -2, -4, -7, -1, -6, -2), (1,) * 5), "rank"),
    # Gram rank 3, inconsistent Weyl system
    (PolygonDatum(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 2)), "weyl-vector"),
    # positive-det first triple
    (triangle(0, 0, -1), "lorentzian"),
    # degenerate first triples, then a positive one
    (PolygonDatum(4, (-2, 0, 0, 0, 0, -1), (1, 1, 1, 1)), "lorentzian"),
    # every triple degenerate
    (PolygonDatum(4, (2,) * 6, (1, 1, 1, 1)), "lorentzian"),
    # adjacent pairing -3
    (triangle(-3, -1, -2), "adjacent-pairings"),
]


@pytest.mark.parametrize("d, failing", MALFORMED)
def test_verify_matches_oracle_on_malformed_data(d, failing):
    assert failing in {c.name for c in verify_realization(d).failures()}
    _assert_matches_oracle(d)


@st.composite
def random_polygon(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    pairings = tuple(
        draw(st.integers(min_value=-6, max_value=2)) for _ in range(n * (n - 1) // 2)
    )
    lam = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(n))
    return PolygonDatum(n, pairings, lam)


@given(random_polygon())
def test_verify_matches_oracle_on_random_data(d):
    _assert_matches_oracle(d)


def test_symmetry_group_matches_apply_move_stabilizer():
    for d in _catalog_relabellings():
        assert symmetry_group(d) == reference_symmetry_group(d), d


@given(random_polygon())
def test_symmetry_group_matches_stabilizer_on_random_data(d):
    assert symmetry_group(d) == reference_symmetry_group(d)


@pytest.mark.parametrize("n", range(3, 17))
def test_dihedral_relabellers_follow_apply_move_order(n):
    # distinct entries, so equal bodies mean equal index permutations
    k = n * (n - 1) // 2
    d = PolygonDatum(n, tuple(range(-1, -k - 1, -1)), tuple(range(1, n + 1)))
    body = d.pairings + d.lam
    images = [apply_move(d, m) for m in all_moves(n)]
    assert [relabel(body) for relabel in dihedral_relabellers(n)] == [
        e.pairings + e.lam for e in images
    ]


@pytest.mark.parametrize("n", range(3, 21))
def test_dihedral_relabellers_match_pack_index_oracle(n):
    body = tuple(range(n * (n - 1) // 2 + n))
    images = tuple(relabel(body) for relabel in dihedral_relabellers(n))
    assert images == reference_relabellers(n)


def test_gram_matches_pair():
    d = table_to_datum(ROW_6)
    assert d.gram == tuple(
        tuple(pair(d, i, j) for j in range(1, 5)) for i in range(1, 5)
    )


# --- the Weyl system and the table decoder against the oracles --------------


def _assert_weyl_system_matches_oracle(g, lam):
    """``_weyl_numerators``' rank and x = y / D are the oracle's rank and solution."""
    m = QMatrix.from_rows(g)
    expected = (rank(m), solve_consistent(m, [-l for l in lam]))
    r, y, den = _weyl_numerators(g, lam)
    x = None if y is None else tuple(Fraction(v, den) for v in y)
    assert (r, x) == expected, (g, lam)


WEYL_SYSTEMS = [
    # a zero row, consistent and inconsistent
    ([[2, 1], [0, 0]], [1, 0]),
    ([[2, 1], [0, 0]], [1, 1]),
    # the zero matrix
    ([[0, 0, 0]] * 3, [0, 0, 0]),
    ([[0, 0, 0]] * 3, [0, 1, 0]),
    # rank 2 of 3 (row 3 = row 1 + row 2), consistent and inconsistent
    ([[1, 2, 0], [0, 1, 3], [1, 3, 3]], [1, 2, 3]),
    ([[1, 2, 0], [0, 1, 3], [1, 3, 3]], [1, 2, 4]),
    # a zero pivot column: the free coordinate stays 0
    ([[0, 1, 2], [0, 3, 1], [0, 0, 0]], [1, 1, 0]),
    # a row swap at the first pivot
    ([[0, 1, 2], [3, 1, 1], [1, 0, 1]], [2, 1, 1]),
]


@pytest.mark.parametrize("g, lam", WEYL_SYSTEMS)
def test_weyl_system_matches_oracle_on_edge_cases(g, lam):
    _assert_weyl_system_matches_oracle(g, lam)


def test_weyl_system_negative_final_pivot():
    g, lam = [[2, 1], [1, -1]], [1, 1]
    _, y, den = _weyl_numerators(g, lam)
    assert den == -3 and y == [2, -1]
    _assert_weyl_system_matches_oracle(g, lam)


def test_weyl_system_matches_oracle_on_fixture_bases():
    for f in lattice_fixtures():
        basis_t = [list(col) for col in zip(*f.basis)]
        for root in f.roots:
            _assert_weyl_system_matches_oracle(basis_t, [-v for v in root])


@st.composite
def integer_system(draw):
    """A square, generally non-symmetric system, often rank-deficient."""
    n = draw(st.integers(min_value=1, max_value=8))
    entry = st.integers(min_value=-4, max_value=4)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entry), draw(entry)
            rows.append([a * s + b * t for s, t in zip(u, v)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    if draw(st.booleans()):
        # right-hand side in the column span: consistent
        x = [draw(entry) for _ in range(n)]
        lam = [-sum(a * t for a, t in zip(row, x)) for row in rows]
    else:
        lam = [draw(entry) for _ in range(n)]
    return rows, lam


@given(integer_system())
def test_weyl_system_matches_oracle_on_random_systems(system):
    _assert_weyl_system_matches_oracle(*system)


# --- the window path against the elimination --------------------------------


def _assert_window_matches_elimination(g, lam):
    """The first window's det (or None) and the rank; with a window,
    ``_window_weyl`` gives the elimination's rank and square, or None
    exactly when the rank exceeds 3."""
    rank, y, den = _weyl_numerators(g, lam)
    square = None if y is None else Fraction(-sum(map(mul, lam, y)), den)
    window = _first_window(g)
    if window is not None:
        expected = None if rank > 3 else (3, square)
        assert _window_weyl(g, lam, window) == expected, (g, lam)
    return None if window is None else window[3], rank


# Gram of e1, e2, e3, -e1 in the lattice with window Gram 2I.
POSITIVE_GRAM = [[2, 0, 0, -2], [0, 2, 0, 0], [0, 0, 2, 0], [-2, 0, 0, 2]]
WINDOW_CASES = [
    # (g, lam, first window det, rank)
    # det > 0 first window, rank 3, with and without rho
    (POSITIVE_GRAM, [1, 1, 1, -1], 8, 3),
    (POSITIVE_GRAM, [1, 1, 1, 1], 8, 3),
    # det < 0, rank 3, without and with rho
    (PolygonDatum(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 2)).gram, [1, 3, 3, 2], -12, 3),
    (table_to_datum(ROW_6).gram, [1, 6, 3, 2], -18, 3),
    # rank 4 and 5 behind a nondegenerate first window
    (PolygonDatum(4, (0,) * 6, (1,) * 4).gram, [1, 1, 1, 1], 8, 4),
    (PolygonDatum(5, (-1, -3, -5, 0, -2, -4, -7, -1, -6, -2), (1,) * 5).gram, [1] * 5, -32, 5),
    # every triple degenerate: rank 2 and rank 1
    (PolygonDatum(3, (-2, 0, 0), (1, 1, 1)).gram, [1, 1, 1], None, 2),
    (PolygonDatum(3, (2, 0, 0), (1, 1, 1)).gram, [1, 1, 1], None, 2),
    (PolygonDatum(4, (2,) * 6, (1,) * 4).gram, [1, 1, 1, 1], None, 1),
]


@pytest.mark.parametrize("g, lam, det, rank", WINDOW_CASES)
def test_window_path_matches_elimination_on_edge_cases(g, lam, det, rank):
    assert _assert_window_matches_elimination(g, lam) == (det, rank)


@st.composite
def lattice_gram(draw):
    """Gram of norm-2 vectors of Z^3 with a random window Gram W (so rank
    <= 3, det W of either sign or 0), an entry pair often moved off rank 3,
    and lambdas often in the span."""
    a, b, c = (draw(st.integers(min_value=-3, max_value=3)) for _ in range(3))
    w = ((2, -a, -b), (-a, 2, -c), (-b, -c, 2))

    def pairing(u, v):
        return sum(u[s] * w[s][t] * v[t] for s in range(3) for t in range(3))

    roots = [v for v in product(range(-2, 3), repeat=3) if pairing(v, v) == 2]
    vs = draw(st.lists(st.sampled_from(roots), min_size=3, max_size=8))
    g = [[pairing(u, v) for v in vs] for u in vs]
    if draw(st.booleans()):
        p, q = draw(st.permutations(range(len(vs))))[:2]
        g[p][q] = g[q][p] = g[p][q] + draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):
        rho = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(3)]
        lam = [-pairing(rho, v) for v in vs]
    else:
        lam = [draw(st.integers(min_value=-3, max_value=3)) for _ in vs]
    return g, lam


@given(lattice_gram())
def test_window_path_matches_elimination_on_lattice_data(system):
    _assert_window_matches_elimination(*system)


@given(random_polygon())
def test_window_path_matches_elimination_on_random_data(d):
    _assert_window_matches_elimination(d.gram, d.lam)


@st.composite
def symmetric_gram(draw):
    """A symmetric integer matrix with diagonal 2 and lambdas, of any rank.

    Sides are drawn as norm-2 vectors of Z^3 with a random window Gram,
    as in ``lattice_gram``, or as free entries; repeated sides often make
    the first triples degenerate, and one entry pair is often moved.
    """
    entry = st.integers(min_value=-4, max_value=4)
    if draw(st.booleans()):
        g, lam = draw(lattice_gram())
        g = [list(row) for row in g]
    else:
        n = draw(st.integers(min_value=3, max_value=8))
        g = [[2] * n for _ in range(n)]
        for m in range(n):
            for p in range(m + 1, n):
                g[m][p] = g[p][m] = draw(entry)
        lam = [draw(entry) for _ in range(n)]
    if draw(st.booleans()):
        # repeat a side in front: the triples through both copies are degenerate
        m = draw(st.integers(min_value=0, max_value=len(g) - 1))
        g = [[g[m][m]] + g[m]] + [[row[m]] + row for row in g]
        lam = [lam[m]] + lam
    return g, lam


# (g, lam): the window (1,3,4) behind a repeated side; a positive det; Gram
# rank 4 and 5; rank 3 with no rho
SCHUR_CASES = [
    ([[2, 2, 0, 0], [2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]], [1, 1, 1, 1]),
    (POSITIVE_GRAM, [1, 1, 1, -1]),
    (PolygonDatum(4, (0,) * 6, (1,) * 4).gram, [1, 1, 1, 1]),
    (PolygonDatum(5, (-1, -3, -5, 0, -2, -4, -7, -1, -6, -2), (1,) * 5).gram, [1] * 5),
    (PolygonDatum(4, (0, -3, -1, -1, -3, 0), (1, 3, 3, 2)).gram, [1, 3, 3, 2]),
]


def test_schur_cases_cover_the_window_shapes():
    windows = [_first_window(g) for g, _ in SCHUR_CASES]
    assert windows[0][:3] == (0, 2, 3) and windows[1][3] > 0
    ranks = [_weyl_numerators(g, lam)[0] for g, lam in SCHUR_CASES]
    assert ranks[2:4] == [4, 5]
    assert ranks[4] == 3 and _window_weyl(*SCHUR_CASES[4], windows[4]) == (3, None)


@given(symmetric_gram())
@example(SCHUR_CASES[0])
@example(SCHUR_CASES[1])
@example(SCHUR_CASES[2])
@example(SCHUR_CASES[3])
@example(SCHUR_CASES[4])
def test_window_weyl_skips_only_identities(system):
    """The Schur test on off-window sides decides as the all-pairs test does."""
    g, lam = system
    window = _first_window(g)
    if window is not None:
        assert _window_weyl(g, lam, window) == all_pairs_window_weyl(g, lam, window)


def test_valid_data_never_reach_the_elimination(monkeypatch):
    """No catalog row, relabelling or engine record runs ``_weyl_numerators``.

    The relabellings are every dihedral image of every catalog row, so
    they include each block of a ``check`` input made by relabelling the
    catalog, however many copies it has.
    """
    calls = []

    def counted(g, lam):
        calls.append((g, lam))
        return _weyl_numerators(g, lam)

    monkeypatch.setattr(core, "_weyl_numerators", counted)
    assert all(check.passed for check in self_check_catalog())
    assert all(verify_realization(d).valid for d in _catalog_relabellings())
    assert len(run_elliptic(6).records) == 60
    assert calls == []
    verify_realization(PolygonDatum(4, (0,) * 6, (1,) * 4))
    assert len(calls) == 1


def test_check_result_shares_each_passed_check():
    assert core.check_result("rank") is core.check_result("rank", "")
    assert core.check_result("rank") == core.CheckResult("rank", True, "")
    assert core.check_result("rank", "Gram rank is 4, need 3") == core.CheckResult(
        "rank", False, "Gram rank is 4, need 3"
    )


def _decoded(decode, rows):
    try:
        return decode(rows)
    except TableDecodeError as exc:
        return f"TableDecodeError: {exc}"


def _assert_decode_matches_oracle(rows):
    assert _decoded(table_to_datum, rows) == _decoded(reference_table_to_datum, rows)


def test_decode_matches_oracle_on_catalog_relabellings():
    for d in _catalog_relabellings():
        rows = polygon_table(d)
        assert table_to_datum(rows) == d
        _assert_decode_matches_oracle(rows)


MALFORMED_TABLES = [
    # negative entry, then an antipodal mismatch in the same middle row
    ((1, 1, 1, 1), (0, 1, 0, 1), (-1, 3, 4, 3)),
    ((1,) * 6, (0, 1, 0, 1, 0, 1), (1, 2, 1, 2, 1, 2), (3, -2, 3, 3, 5, 3)),
    # antipodal mismatch, then a negative entry in the same middle row
    ((1, 1, 1, 1), (0, 1, 0, 1), (3, 3, 4, -1)),
    ((1,) * 6, (0, 1, 0, 1, 0, 1), (1, 2, 1, 2, 1, 2), (3, 3, 3, 4, 3, -2)),
    # one entry both negative and mismatched
    ((1, 1, 1, 1), (0, 1, 0, 1), (3, 3, -1, 3)),
    # a negative entry in an earlier row wins over the middle row
    ((1, 1, 1, 1), (0, 1, 0, -1), (3, 3, 4, 3)),
    # consistent antipodal row, negative entry last
    ((1, 1, 1, 1), (0, 1, 0, 1), (3, -1, 3, -1)),
    # shape and lambda errors
    ((1, 1, 1),),
    ((1, 1), (0, 1)),
    ((1, 1, 1), (0, 1)),
    ((1, 1, 1, 1), (0, 1, 0, 1)),
    ((1, 0, 1), (0, -1, 2)),
    # an entry at the bound, alone and before a negative entry, a bad lambda
    # or an antipodal mismatch
    ((1, 1, 1), (0, 1, 10**18)),
    ((1, 1, 1), (0, 1, 10**400)),
    ((1, 1, 1), (-1, 1, 10**18)),
    ((0, 1, 10**18), (0, 1, 2)),
    ((1, 1, 1, 1), (0, 1, 0, 1), (10**18, 3, 4, 3)),
]


@pytest.mark.parametrize("rows", MALFORMED_TABLES)
def test_decode_matches_oracle_on_malformed_tables(rows):
    assert isinstance(_decoded(table_to_datum, rows), str)
    _assert_decode_matches_oracle(rows)


@st.composite
def random_table(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    lam = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(n))
    entry = st.integers(min_value=-1, max_value=3)
    rows = [tuple(draw(entry) for _ in range(n)) for _ in range(n // 2)]
    if n % 2 == 0 and draw(st.booleans()):
        half = rows[-1][: n // 2]
        rows[-1] = half + half
    return (lam, *rows)


@given(random_table())
def test_decode_matches_oracle_on_random_tables(rows):
    _assert_decode_matches_oracle(rows)


# --- the lambda-Gram product table against per-entry definitions ------------


def _assert_products_match_oracle(d):
    a = reference_cartan(d)
    bad = [
        (j, k)
        for j, row in enumerate(a, start=1)
        for k, v in enumerate(row, start=1)
        if v.denominator != 1
    ]
    assert _divisibility_failures(d) == bad, d
    if bad:
        with pytest.raises(InvalidRealizationError, match=re.escape(str(bad))):
            cartan_matrix(d)
    else:
        fast = cartan_matrix(d)
        assert fast == a, d
        assert all(type(v) is int for row in fast for v in row)
    assert symmetrized_cartan(d) == reference_symcartan(d), d


def test_products_match_per_entry_oracle_on_catalog_relabellings():
    for d in _catalog_relabellings():
        _assert_products_match_oracle(d)


@given(random_polygon())
def test_products_match_per_entry_oracle_on_random_data(d):
    _assert_products_match_oracle(d)


def test_product_table_is_keyed_on_the_lambdas():
    """Same pairings, different lambdas, queried alternately: different matrices."""
    pairings = (0, -2, -1)
    x, y = PolygonDatum(3, pairings, (1, 1, 1)), PolygonDatum(3, pairings, (2, 1, 1))
    for _ in range(2):
        for d in (x, y):
            assert cartan_matrix(d) == reference_cartan(d)
            assert symmetrized_cartan(d) == reference_symcartan(d)
            assert _divisibility_failures(d) == []
    assert cartan_matrix(x) != cartan_matrix(y)
    assert symmetrized_cartan(x) != symmetrized_cartan(y)
