import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import TaggedInverseSolver, fraction_product
from hypothesis import assume, given
from hypothesis import strategies as st

import cubix.linalg as linalg
from cubix.linalg import (
    InvariantError,
    RationalMatrix,
    RowSpanSolver,
    SubspaceEscape,
    echelon_basis,
    image_basis,
    leading_coords,
    normalize_int_vector,
    parse_scalar,
    rank,
)


def dense_rank_reference(rows):
    """Plain Gaussian elimination over Fraction, for cross-checking."""
    mat = [[Fraction(v) for v in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def random_matrix(rng, nrows, ncols, density=0.4, fractions=False):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < density:
                v = rng.randint(-6, 6)
                if fractions and rng.random() < 0.3:
                    v = Fraction(v, rng.randint(1, 5))
                row.append(v)
            else:
                row.append(0)
        rows.append(row)
    return rows


def test_matrix_product_and_identity():
    a = RationalMatrix.from_rows([[1, 2], [3, 4], [0, 1]])
    i2 = RationalMatrix.identity(2)
    assert a * i2 == a
    b = RationalMatrix.from_rows([[0, 1], [1, 0]])
    ab = a * b
    assert ab.to_rows() == [[2, 1], [4, 3], [1, 0]]


def assert_normalized(mat):
    """The one format: nonempty rows of nonzero int numerators over a
    positive int den, reduced, so the gcd of den and every numerator is 1
    (and a zero matrix has den 1)."""
    assert type(mat.den) is int and mat.den >= 1
    g = mat.den
    for row in mat.rows.values():
        assert row
        for v in row.values():
            assert type(v) is int and v
            g = gcd(g, v)
    assert g == 1


def test_a_matrix_is_integer_numerators_over_one_reduced_den():
    a = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, 2]])
    assert (a.rows, a.den) == ({0: {0: 3, 1: 2}, 1: {1: 12}}, 6)
    assert a.entry(0, 1) == Fraction(1, 3)
    assert type(a.entry(1, 1)) is int and a.entry(1, 1) == 2
    assert a.row_dict(0) == {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert a.trace() == Fraction(5, 2)
    # the constructor reduces, so equal matrices have equal fields
    b = RationalMatrix(2, 2, {0: {0: 3}, 1: {0: 9, 1: 6}}, 6)
    assert (b.rows, b.den) == ({0: {0: 1}, 1: {0: 3, 1: 2}}, 2)
    assert b == RationalMatrix.from_rows([[Fraction(1, 2), 0], [Fraction(3, 2), 1]])
    assert RationalMatrix(3, 3, {}, 5) == RationalMatrix.zeros(3, 3)
    assert RationalMatrix(1, 1, {0: {0: 1}}, 2) != RationalMatrix.identity(1)
    assert RationalMatrix.zeros(3, 3).den == 1
    # integers stay over den 1, and a product or sum over one comes back
    # over the least den
    ints = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert ints.den == (ints * ints).den == (ints + ints).den == 1
    assert (a.scale(6).rows, a.scale(6).den) == ({0: {0: 3, 1: 2}, 1: {1: 12}}, 1)
    assert (a * ints.scale(2)).den == 3
    assert (a - a).is_zero() and (a - a).den == 1


def test_fractional_products_reduce_to_ints_and_cancel():
    a = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 0]])
    b = RationalMatrix.from_rows([[2, -1], [3, Fraction(3, 2)]])
    ab = a * b
    assert ab.to_rows() == [[2, 0], [1, Fraction(-1, 2)]]
    assert ab == fraction_product(a, b)
    assert_normalized(ab)
    negative = RationalMatrix.from_rows([[Fraction(-1, 6), Fraction(1, 4)]]) * b.transpose()
    assert negative.to_rows() == [[Fraction(-7, 12), Fraction(-1, 8)]]
    c = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 2)]])
    assert (c * RationalMatrix.from_rows([[1], [1]])).is_zero()


fraction_entries = st.one_of(
    st.just(0), st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6)
)


@st.composite
def product_operands(draw):
    """(a, b) with a p x q and b q x r, each dimension 0 to 5, entries
    sparse ints and Fractions of either sign; some rows are zero."""
    p, q, r = (draw(st.integers(0, 5)) for _ in range(3))

    def matrix(nrows, ncols):
        row = st.lists(fraction_entries, min_size=ncols, max_size=ncols)
        return RationalMatrix.from_rows(draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols)

    return matrix(p, q), matrix(q, r)


@given(product_operands())
def test_product_equals_the_fraction_oracle(operands):
    a, b = operands
    ab = a * b
    assert ab == fraction_product(a, b)
    assert ab.shape == (a.nrows, b.ncols)
    assert_normalized(ab)


@given(product_operands(), fraction_entries)
def test_sums_scales_and_transposes_keep_the_format(operands, c):
    a, b = operands
    for mat in (a + a, a - a, a.scale(c), -a, a.transpose(), a.kron(b)):
        assert_normalized(mat)
    assert (a + a.scale(c)).to_rows() == [[x + c * x for x in row] for row in a.to_rows()]
    t, k = a.transpose(), a.kron(b)
    for i in range(a.nrows):
        for j in range(a.ncols):
            assert t.entry(j, i) == a.entry(i, j)
            for p in range(b.nrows):
                for q in range(b.ncols):
                    kij = k.entry(i * b.nrows + p, j * b.ncols + q)
                    assert kij == a.entry(i, j) * b.entry(p, q)


def test_entries_normalized_to_int():
    a = RationalMatrix.from_rows([[Fraction(4, 2), Fraction(1, 3)]])
    assert a.entry(0, 0) == 2
    assert isinstance(a.entry(0, 0), int)
    assert a.entry(0, 1) == Fraction(1, 3)


def test_add_sub_scale_transpose_trace():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert (a - a).is_zero()
    assert (a + b).entry(0, 0) == 2
    assert a.scale(Fraction(1, 2)).entry(1, 1) == 2
    assert a.transpose().entry(0, 1) == 3
    assert a.trace() == 5


def test_kron_against_definition():
    a = RationalMatrix.from_rows([[1, 2], [0, 3]])
    b = RationalMatrix.from_rows([[0, 1], [1, 1]])
    k = a.kron(b)
    assert k.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k.entry(2 * i + p, 2 * j + q) == a.entry(i, j) * b.entry(
                        p, q
                    )


def test_rank_random_against_reference():
    rng = random.Random(20260815)
    for trial in range(40):
        nrows = rng.randint(1, 9)
        ncols = rng.randint(1, 9)
        rows = random_matrix(rng, nrows, ncols, fractions=(trial % 2 == 0))
        a = RationalMatrix.from_rows(rows, ncols)
        assert rank(a) == dense_rank_reference(rows)


def test_rank_of_low_rank_products():
    rng = random.Random(7)
    for trial in range(21):
        # the last product is a filled-in block whose rank runs past 64 pivots
        size, r = (8, rng.randint(1, 3)) if trial < 20 else (72, 68)
        left = RationalMatrix.from_rows(random_matrix(rng, size, r, density=0.8), r)
        right = RationalMatrix.from_rows(random_matrix(rng, r, size, density=0.8), size)
        prod = left * right
        assert rank(prod) <= r
        assert rank(prod) == dense_rank_reference(prod.to_rows())


def test_rank_large_sparse_smoke():
    rng = random.Random(99)
    rows = random_matrix(rng, 120, 150, density=0.04)
    a = RationalMatrix.from_rows(rows, 150)
    assert rank(a) == dense_rank_reference(rows)


def test_image_basis_spans_columns():
    # the columns of a are the images of the map a.transpose()
    rng = random.Random(47)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = random_matrix(rng, nrows, ncols)
        a = RationalMatrix.from_rows(rows, ncols)
        ib = image_basis(a.transpose())
        r = rank(a)
        assert len(ib) == r
        if not r:
            continue
        basis_mat = RationalMatrix.from_row_dicts(ib, r, nrows)
        assert rank(basis_mat) == r
        # every original column lies in the span of the returned basis
        for j in range(ncols):
            col = {i: rows[i][j] for i in range(nrows) if rows[i][j]}
            aug = RationalMatrix.from_row_dicts(ib + [col], r + 1, nrows)
            assert rank(aug) == r


def test_image_basis_is_deterministic_pivot_columns():
    a = RationalMatrix.from_rows([[2, 1], [4, 2], [1, 0]])
    ib = image_basis(a)
    # rows 0 and 2, the pivot columns of the transpose; row 0 normalizes to (2,1)
    assert ib == [{0: 2, 1: 1}, {0: 1}]


def random_echelon_rows(rng, k, ncols, density=0.7):
    """k integer rows leading at k distinct columns, in increasing order,
    with leads that may be negative and non-unit."""
    rows = []
    for c in sorted(rng.sample(range(ncols), k)):
        row = {c: rng.choice([-3, -2, -1, 1, 2, 3])}
        for j in range(c + 1, ncols):
            if rng.random() < density:
                row[j] = rng.randint(-6, 6)
        rows.append({j: v for j, v in row.items() if v})
    return rows


def test_row_span_solver_roundtrip():
    rng = random.Random(123)
    for _ in range(20):
        k = rng.randint(1, 5)
        ncols = k + rng.randint(0, 4)
        rows = random_echelon_rows(rng, k, ncols)
        solver = RowSpanSolver(rows, ncols)
        coeffs = [rng.randint(-5, 5) for _ in range(k)]
        vec = {}
        for ci, row in zip(coeffs, rows):
            for j, v in row.items():
                vec[j] = vec.get(j, 0) + ci * v
        vec = {j: v for j, v in vec.items() if v}
        got = solver.coords(vec)
        assert got == coeffs


def test_row_span_solver_rejects_outside_vectors():
    rows = [{0: 1, 1: 1}]
    solver = RowSpanSolver(rows, 3)
    assert solver.coords({0: 1, 1: 1, 2: 1}) is None
    assert solver.coords({0: 2, 1: 2}) == [2]


def test_row_span_solver_fractional_coords():
    solver = RowSpanSolver([{0: 2}], 1)
    assert solver.coords({0: 1}) == [Fraction(1, 2)]


def test_row_span_solver_rejects_dependent_rows():
    # every caller's rows must be in echelon form, so independent: a
    # dependency is a broken invariant
    with pytest.raises(
        InvariantError, match=r"^2 rows are not in echelon form: rows 0 and 1 lead at column 0$"
    ):
        RowSpanSolver([{0: 1}, {0: 2}], 2)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{0: 1, 1: 1}, {}, {2: 2}], "3 rows are not in echelon form: row 1 is zero"),
        ([{1: 0}], "1 rows are not in echelon form: row 0 is zero"),
        (
            [{1: 1, 2: 1}, {0: 3}, {1: -2}],
            "3 rows are not in echelon form: rows 0 and 2 lead at column 1",
        ),
    ],
    ids=["zero-row", "zero-entries-only", "independent-one-lead"],
)
def test_row_span_solver_rejects_a_family_that_is_not_echelon(rows, message):
    # independent rows that share a lead are refused too: the solver reads
    # coordinates off the leads, so it takes echelon families only
    with pytest.raises(InvariantError, match=f"^{message}$"):
        RowSpanSolver(rows, 3)


def test_leading_coords_divides_by_leading_entries():
    # rows: 1/2 (2, 0, 1); the zero vector; (2, 0, 1) - (0, -3, 3)
    basis = [{0: 2, 2: 1}, {1: -3, 2: 3}]
    x = RationalMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 0, 0], [2, 3, -2]])
    assert leading_coords(x, basis, "S").to_rows() == [[Fraction(1, 2), 0], [0, 0], [1, -1]]
    assert leading_coords(RationalMatrix.zeros(0, 3), basis, "S") == RationalMatrix.zeros(0, 2)
    assert leading_coords(RationalMatrix.zeros(2, 3), [], "S") == RationalMatrix.zeros(2, 0)


@pytest.mark.parametrize(
    "basis, row",
    [([{0: 1, 1: 1}], [0, 1, 0]), ([{0: 1, 1: 1}], [1, 0, 0]), ([], [0, 0, 1])],
    ids=["least-column-leads-nothing", "remainder-leads-nothing", "empty-basis"],
)
def test_leading_coords_raises_when_a_least_column_leads_nothing(basis, row):
    x = RationalMatrix.from_rows([[0, 0, 0], row])
    with pytest.raises(SubspaceEscape, match=r"^a vector escapes the test span$"):
        leading_coords(x, basis, "the test span")


def test_solve_equals_the_tagged_inverse_oracle_on_non_unit_pivots():
    rows = [{0: 2, 1: 4, 3: -3}, {1: -3, 2: 5}, {3: 6, 4: 9}]
    x = RationalMatrix.from_rows([[1, 2, 0], [Fraction(1, 3), 0, 5], [0, 0, 0]])
    x = x * RationalMatrix.from_row_dicts(rows, 3, 5)
    got = RowSpanSolver(rows, 5).solve(x)
    assert got == TaggedInverseSolver(rows, 5).solve(x)
    assert got.to_rows() == [[1, 2, 0], [Fraction(1, 3), 0, 5], [0, 0, 0]]


small_ints = st.integers(-4, 4)
rationals = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=5))


@st.composite
def echelon_rows(draw, extra_cols=0):
    """k integer rows in echelon form over at least k + extra_cols columns.

    Up to 8 rows, so the solver strips over several leads, each at a column
    of its own, with entries (and so leads) that are negative and non-unit.
    """
    k = draw(st.integers(0, 8))
    ncols = k + extra_cols + draw(st.integers(0, 3))
    leads = sorted(draw(st.permutations(range(ncols)))[:k])
    rows = []
    for c in leads:
        lead = draw(small_ints.filter(bool))
        rest = draw(st.lists(small_ints, min_size=ncols - c - 1, max_size=ncols - c - 1))
        rows.append([0] * c + [lead] + rest)
    return RationalMatrix.from_rows(rows, ncols)


def solver_of(b):
    return RowSpanSolver([b.row_dict(i) for i in range(b.nrows)], b.ncols)


@given(echelon_rows(), st.data())
def test_solve_recovers_rational_coefficients(b, data):
    nrows = data.draw(st.integers(0, 4))
    row = st.lists(rationals, min_size=b.nrows, max_size=b.nrows)
    c = RationalMatrix.from_rows(
        data.draw(st.lists(row, min_size=nrows, max_size=nrows)), b.nrows
    )
    assert solver_of(b).solve(c * b) == c


@given(echelon_rows(extra_cols=1), st.data())
def test_solve_rejects_a_row_outside_the_span(b, data):
    v = data.draw(st.lists(small_ints, min_size=b.ncols, max_size=b.ncols))
    assume(rank(RationalMatrix.from_rows(b.to_rows() + [v], b.ncols)) == b.nrows + 1)
    inside = [sum(row[j] for row in b.to_rows()) for j in range(b.ncols)]
    with pytest.raises(SubspaceEscape):
        solver_of(b).solve(RationalMatrix.from_rows([inside, v], b.ncols))


@given(echelon_rows(), st.data())
def test_solve_equals_the_tagged_inverse_oracle(b, data):
    # rational coordinates on non-unit pivots, k = 0 included, and a row
    # that escapes the span when one is drawn
    rows = [b.row_dict(i) for i in range(b.nrows)]
    solver, oracle = RowSpanSolver(rows, b.ncols), TaggedInverseSolver(rows, b.ncols)
    nrows = data.draw(st.integers(0, 4))
    row = st.lists(rationals, min_size=b.nrows, max_size=b.nrows)
    c = RationalMatrix.from_rows(
        data.draw(st.lists(row, min_size=nrows, max_size=nrows)), b.nrows
    )
    assert solver.solve(c * b) == oracle.solve(c * b) == c
    v = data.draw(st.lists(small_ints, min_size=b.ncols, max_size=b.ncols))
    if rank(RationalMatrix.from_rows(b.to_rows() + [v], b.ncols)) > b.nrows:
        x = RationalMatrix.from_rows([v], b.ncols)
        for s in (solver, oracle):
            with pytest.raises(SubspaceEscape, match=r"^a vector escapes the test span$"):
                s.solve(x, "the test span")


@given(st.data())
def test_echelon_basis_is_an_echelon_basis_of_the_row_span(data):
    # any rational rows, zero and dependent ones included: the solver takes
    # the result, which has the rank's size and spans every input row
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    a = RationalMatrix.from_rows(data.draw(st.lists(row, max_size=8)), ncols)
    # the integer numerator rows span the row space of a's rational rows
    basis = echelon_basis(list(a.rows.values()), ncols)
    assert len(basis) == rank(a)
    solver = RowSpanSolver(basis, ncols)
    assert solver.solve(a) * solver.basis == a


def test_the_solver_checks_its_family_once(monkeypatch):
    # solve and coords reuse the lead map __init__ built; leading_coords
    # called on its own still checks the family it is handed
    calls = []
    real = linalg._leads
    monkeypatch.setattr(linalg, "_leads", lambda basis: calls.append(1) or real(basis))
    solver = RowSpanSolver([{0: 1, 1: 1}, {1: 2, 2: 1}], 3)
    assert len(calls) == 1
    x = RationalMatrix.from_rows([[1, 3, 1], [0, 0, 0]])
    assert solver.solve(x).to_rows() == [[1, 1], [0, 0]]
    assert solver.coords({1: 2, 2: 1}) == [0, 1]
    assert len(calls) == 1
    with pytest.raises(InvariantError, match="lead at column 1$"):
        leading_coords(x, [{1: 1}, {1: 2, 2: 1}], "S")
    assert len(calls) == 2


def test_solve_over_zero_rows():
    solver = RowSpanSolver([], 3)
    assert solver.solve(RationalMatrix.zeros(2, 3)) == RationalMatrix.zeros(2, 0)
    with pytest.raises(SubspaceEscape):
        solver.solve(RationalMatrix.from_rows([[0, 0, 0], [0, 1, 0]]))


def test_normalize_int_vector():
    assert normalize_int_vector({0: 2, 2: 4}) == {0: 1, 2: 2}
    assert normalize_int_vector({1: -2, 3: 4}) == {1: 1, 3: -2}
    assert normalize_int_vector({}) == {}
    assert normalize_int_vector({5: 0}) == {}


def test_solve_in_span():
    solver = RowSpanSolver([{0: 1, 1: 1}, {1: 1, 2: 1}], 3)
    assert solver.coords({0: 1, 1: 1}) == [1, 0]
    assert solver.coords({}) == [0, 0]
    assert solver.coords({0: 1, 2: 1}) is None
    assert solver.coords({0: 2, 1: 3, 2: 1}) == [2, 1]
    assert RowSpanSolver([], 1).coords({0: 1}) is None
    assert RowSpanSolver([], 1).coords({}) == []


def test_idempotent_rank_equals_trace():
    # averaging projector for the order-2 group acting by coordinate swap
    p = RationalMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    assert p * p == p
    assert rank(p) == p.trace() == 1
    assert len(image_basis(p)) == 1
    assert image_basis(p) == [{0: 1, 1: 1}]


def test_scalar_parse_format_roundtrip():
    for s in ["3", "-2", "1/2", "-7/3"]:
        v = parse_scalar(s)
        assert str(v) == s
    assert parse_scalar("4/2") == 2
    assert isinstance(parse_scalar("4/2"), int)
