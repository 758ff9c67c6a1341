"""Exact sparse linear algebra over the rationals.

Matrices are stored row-major as nested dicts ``{row: {col: value}}`` with
values that are Python ints or ``fractions.Fraction``; exact zeros are never
stored, and fractions with denominator 1 are normalized to ints on insert so
that the common all-integer case runs on machine integer arithmetic.

Vectors are rows, and every map of the package has one orientation: its
matrix holds one row per source basis vector, namely that vector's image,
so a map from a space of dimension a to one of dimension b is a x b, and
``x * A * B`` applies A, then B.  Module actions, differentials, word
operators and coordinates all follow it, so no caller converts.

Products run on integer arithmetic too when an operand holds Fractions.
The right operand's rows are scaled to integers by their common
denominator, and a left row by its own when it holds a Fraction; the inner
loop then multiplies integer numerators, and each output entry is divided
once by the product of the two denominators.  A Fraction is built only
for an output entry that is not an integer (``divide_row``).

Elimination never divides.  Each row is scaled to an integer vector with
content 1, and a pivot step replaces ``row`` by ``row * pivot_value -
pivot_row * row_value`` followed by a gcd strip.  Row scaling by nonzero
rationals preserves rank, the right kernel, and the set of pivot columns
under a fixed column order, which is all the routines below rely on.

One row step, ``_clear``, is the only place two rows are combined, and
every elimination is one pass of it with no back pass.  The sparse
``_Eliminator`` drives it in two column orders:

* ``rank`` chooses pivot columns greedily by current column support (a lazy
  min-heap).
* ``image_basis`` and ``echelon_basis`` sweep the columns in index order,
  so that the echelon structure, and in particular the set of pivot
  columns, is deterministic.  ``image_basis`` sweeps the transpose of a
  map and returns the map's rows at the pivots, images that span its
  image; ``echelon_basis`` returns the pivot rows themselves, which is
  all that the coinvariant bases of ``cubical.py`` read too.

``leading_coords`` is the one place coordinates are read off a basis: it
strips a vector by the echelon basis vector that leads at its least
column until nothing is left, and a least column that leads no basis
vector means the vector escapes the span.  ``RowSpanSolver`` expresses
vectors in a fixed echelon row family, which every caller holds already
(the pivot rows of a sweep, or the Lie brackets, which lead at their own
words): it checks the echelon form once, and its ``solve`` is
``leading_coords`` on a whole block of vectors, checking every row's
membership in the span exactly.  This is how each linear map is
restricted to an invariant subspace.

Returned basis vectors are integer and have content 1; those of
``image_basis`` also have a positive first nonzero entry, so test fixtures
can compare them literally.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


def _norm(x):
    """Collapse Fraction with denominator 1 to int; keep ints as ints."""
    # an exact type test: isinstance goes through the numbers ABCs
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def parse_scalar(s: str):
    s = s.strip()
    if "/" in s:
        return _norm(Fraction(s))
    return int(s)


class RationalMatrix:
    """Sparse matrix with exact int/Fraction entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows, ncols=None):
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows):
            d = {j: _norm(v) for j, v in enumerate(row) if v}
            if d:
                data[i] = d
        return cls(nrows, ncols, data)

    @classmethod
    def from_row_dicts(cls, dicts, nrows, ncols):
        data = {}
        for i, d in enumerate(dicts):
            dd = {j: _norm(v) for j, v in d.items() if v}
            if dd:
                data[i] = dd
        return cls(nrows, ncols, data)

    @classmethod
    def from_entries(cls, nrows, ncols, triples):
        data = {}
        for i, j, v in triples:
            if not v:
                continue
            row = data.setdefault(i, {})
            cur = row.get(j, 0) + v
            cur = _norm(cur)
            if cur:
                row[j] = cur
            elif j in row:
                del row[j]
        return cls(nrows, ncols, {i: r for i, r in data.items() if r})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, {})

    # -- accessors ------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.rows.get(i, {}).get(j, 0)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def to_rows(self):
        return [
            [self.rows.get(i, {}).get(j, 0) for j in range(self.ncols)]
            for i in range(self.nrows)
        ]

    def row_dict(self, i):
        return self.rows.get(i, {})

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product, fraction-free (module docstring)."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        data = {}
        orows = other.rows
        oden = _den(orows.values())
        if oden != 1:
            orows = {k: _scaled(brow, oden) for k, brow in orows.items()}
        fractional = _den(self.rows.values()) != 1
        for i, arow in self.rows.items():
            den = oden
            if fractional:
                aden = _den((arow,))
                if aden != 1:
                    arow = _scaled(arow, aden)
                    den *= aden
            acc = {}
            for k, a in arow.items():
                brow = orows.get(k)
                if not brow:
                    continue
                if a == 1:
                    for j, b in brow.items():
                        acc[j] = acc.get(j, 0) + b
                else:
                    for j, b in brow.items():
                        acc[j] = acc.get(j, 0) + a * b
            if den != 1:
                acc = divide_row(acc, den)
            elif 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                data[i] = acc
        return RationalMatrix(self.nrows, other.ncols, data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, s):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        data = {i: dict(r) for i, r in self.rows.items()}
        for i, orow in other.rows.items():
            row = data.setdefault(i, {})
            for j, v in orow.items():
                cur = _norm(row.get(j, 0) + s * v)
                if cur:
                    row[j] = cur
                elif j in row:
                    del row[j]
            if not row:
                del data[i]
        return RationalMatrix(self.nrows, self.ncols, data)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if not c:
            return RationalMatrix.zeros(self.nrows, self.ncols)
        data = {
            i: {j: _norm(c * v) for j, v in r.items()} for i, r in self.rows.items()
        }
        return RationalMatrix(self.nrows, self.ncols, data)

    def transpose(self) -> "RationalMatrix":
        data = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                data.setdefault(j, {})[i] = v
        return RationalMatrix(self.ncols, self.nrows, data)

    def trace(self):
        return _norm(sum(r.get(i, 0) for i, r in self.rows.items()))

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        """Kronecker product; this matrix indexes the coarse blocks."""
        p, q = other.nrows, other.ncols
        data = {}
        for i, arow in self.rows.items():
            for k, brow in other.rows.items():
                out = {}
                for j, a in arow.items():
                    for l, b in brow.items():
                        out[j * q + l] = _norm(a * b)
                data[i * p + k] = out
        return RationalMatrix(self.nrows * p, self.ncols * q, data)


def _den(rows) -> int:
    """The lcm of the denominators of the entries of ``rows``, dict rows: 1
    when every entry is an int.  A plain loop: on the short rows of most
    products it is cheaper than a scan through ``map`` and ``chain``."""
    den = 1
    for row in rows:
        for v in row.values():
            if type(v) is Fraction:
                den = lcm(den, v.denominator)
    return den


def _scaled(row: dict, den: int) -> dict:
    """The row times den, a multiple of every denominator in it: integers,
    each from an integer product rather than a Fraction one."""
    return {
        c: v.numerator * (den // v.denominator) if type(v) is Fraction else v * den
        for c, v in row.items()
    }


def divide_row(row: dict, den: int) -> dict:
    """The row's nonzero entries divided by the positive int den: an int
    where the quotient is one, else one reduced Fraction per entry.  Entries
    may be ints or Fractions."""
    return {c: Fraction(v, den) if v % den else v // den for c, v in row.items() if v}


def _int_row(row: dict) -> dict:
    """The row scaled by the lcm of its denominators, then divided by the
    gcd of its entries: integers with content 1."""
    den = _den((row,))
    ints = dict(row) if den == 1 else _scaled(row, den)
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            break
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def normalize_int_vector(vec):
    """Scale to integer entries with content 1 and positive first nonzero.

    ``vec`` is a dict {index: scalar}; returns a new dict.  The zero vector
    comes back empty.
    """
    ints = _int_row({j: v for j, v in vec.items() if v})
    if ints and ints[min(ints)] < 0:
        return {j: -v for j, v in ints.items()}
    return ints


def _int_rows(matrix: RationalMatrix):
    """Integer-scaled, gcd-stripped copies of the nonzero rows."""
    return {i: _int_row(row) for i, row in matrix.rows.items()}


def _clear(row, prow, c):
    """``row * prow[c] - prow * row[c]`` with its content stripped.

    This is the one row step of every elimination in this module: column c
    drops out, the result is integer when both rows are, and the new row
    is an integer combination of the two, so rank, pivot columns and any
    columns carried along past ``ncols`` keep their meaning.
    """
    pval = prow[c]
    rval = row[c]
    if pval == 1:
        new = dict(row)
    elif pval == -1:
        new = {cc: -v for cc, v in row.items()}
    else:
        new = {cc: v * pval for cc, v in row.items()}
    for cc, pv in prow.items():
        cur = new.get(cc, 0) - pv * rval
        if cur:
            new[cc] = cur
        else:
            del new[cc]
    g = 0
    for v in new.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        new = {cc: v // g for cc, v in new.items()}
    return new


class _Eliminator:
    """Fraction-free elimination on integer sparse rows.

    Keeps a column index (column -> set of active row ids) so pivots can be
    chosen by current column support and rows holding a pivot column can be
    found without scanning.
    """

    def __init__(self, int_rows, ncols):
        self.rows = int_rows
        self.ncols = ncols
        col_rows = {}
        for rid, row in int_rows.items():
            for c in row:
                s = col_rows.get(c)
                if s is None:
                    col_rows[c] = {rid}
                else:
                    s.add(rid)
        self.col_rows = col_rows

    def _pick_pivot_row(self, c):
        # cheapest pivot: small entry first, then sparse row, then stable id
        best = None
        key = None
        for rid in self.col_rows[c]:
            row = self.rows[rid]
            k = (abs(row[c]).bit_length(), len(row), rid)
            if key is None or k < key:
                best, key = rid, k
        return best

    def _eliminate(self, c, prid):
        """Remove the pivot row and clear column c from all other rows."""
        prow = self.rows.pop(prid)
        col_rows = self.col_rows
        for cc in prow:
            col_rows[cc].discard(prid)
        for rid in list(col_rows[c]):
            row = self.rows[rid]
            new = _clear(row, prow, c)
            for cc in row:
                if cc not in new:
                    col_rows[cc].discard(rid)
            for cc in new:
                if cc not in row:
                    col_rows[cc].add(rid)
            if new:
                self.rows[rid] = new
            else:
                del self.rows[rid]
        return prow

    def sweep(self):
        """Eliminate columns 0..ncols-1 in index order; return
        [(pivot_col, pivot_row)].

        The pivot rows form a row echelon basis of the row space: each one
        leads at its pivot column and is supported on later columns only.
        Columns at or past ``ncols`` are carried along but never pivoted.
        """
        pivots = []
        for c in range(self.ncols):
            rids = self.col_rows.get(c)
            if not rids:
                continue
            prid = self._pick_pivot_row(c)
            prow = self._eliminate(c, prid)
            pivots.append((c, prow))
        return pivots

    def rank(self) -> int:
        """Pivot count under a greedy sparsest-column order."""
        heap = [(len(rids), c) for c, rids in self.col_rows.items() if rids]
        heapq.heapify(heap)
        rank = 0
        while heap:
            k, c = heapq.heappop(heap)
            rids = self.col_rows.get(c)
            if not rids:
                continue
            cur = len(rids)
            if cur > k:
                # support grew since the snapshot; requeue with the true size
                heapq.heappush(heap, (cur, c))
                continue
            prid = self._pick_pivot_row(c)
            self._eliminate(c, prid)
            rank += 1
        return rank


def rank(matrix: RationalMatrix) -> int:
    if not matrix.rows:
        return 0
    # elimination retires one row per pivot, so work on the short side
    if matrix.nrows > matrix.ncols:
        matrix = matrix.transpose()
    return _Eliminator(_int_rows(matrix), matrix.ncols).rank()


def image_basis(matrix: RationalMatrix):
    """Basis of the row space, the image of the map: the original rows at
    the pivot columns of the transpose, normalized.

    The pivots are found by a fixed left-to-right sweep of the transpose,
    so which rows are returned is deterministic and depends only on the
    matrix.
    """
    pivots = _Eliminator(_int_rows(matrix.transpose()), matrix.nrows).sweep()
    return [normalize_int_vector(matrix.rows[i]) for i, _ in pivots]


def echelon_basis(rows, ncols: int) -> list:
    """A row echelon basis of the span of the dict rows, over columns
    0..ncols-1: the pivot rows of one column-order ``sweep``, integer with
    content 1, each leading at its own pivot column."""
    return [row for _, row in _Eliminator(dict(enumerate(map(_int_row, rows))), ncols).sweep()]


class InvariantError(ArithmeticError):
    """Exact arithmetic contradicts an identity the construction relies on.

    Raised for a broken internal invariant, never for bad input: a vector
    escaping a subspace the differential must preserve, rows handed to
    ``RowSpanSolver`` that are not in echelon form, a coinvariant relation
    with a nonzero class, D b != m b on the basis of im D, an impossible
    Betti row or rank of d, or a Lyndon count or leading word or
    sign-isotypic dimension that contradicts its closed form.
    """


class SubspaceEscape(InvariantError):
    pass


def _leads(basis) -> dict:
    """{leading column: (index, leading entry)} of an echelon family of dict
    vectors; a zero vector, or two leading at one column, is an
    InvariantError."""
    lead = {}
    for i, vec in enumerate(basis):
        k = min(vec, default=None)
        if k is None or k in lead:
            why = f"rows {lead[k][0]} and {i} lead at column {k}" if vec else f"row {i} is zero"
            raise InvariantError(f"{len(basis)} rows are not in echelon form: {why}")
        lead[k] = (i, vec[k])
    return lead


def leading_coords(x: RationalMatrix, basis, space: str, lead=None) -> RationalMatrix:
    """Matrix c, x.nrows by len(basis), with c * basis == x: x's row j is
    sum_i c[j][i] basis[i].

    ``basis`` is a sequence of dict vectors in echelon form: each leads at
    its least column, and no two lead at the same column (``_leads`` checks
    this, unless its result is passed as ``lead``).  The least column of a
    row of x then leads at most one basis vector, whose multiple (the row's
    entry over the vector's leading entry) is stripped; what is left starts
    at a larger column, so the strip ends.  A least column that leads no
    basis vector raises SubspaceEscape, naming ``space``.  This is the one
    place coordinates are read off a basis.
    """
    if lead is None:
        lead = _leads(basis)
    data = {}
    for j, row in x.rows.items():
        coords = {}
        rest = dict(row)
        while rest:
            k = min(rest)
            found = lead.get(k)
            if found is None:
                raise SubspaceEscape(f"a vector escapes {space}")
            i, p = found
            c = coords[i] = _norm(rest[k] if p == 1 else Fraction(rest[k], p))
            for t, v in basis[i].items():
                r = rest.get(t, 0) - c * v
                if r:
                    rest[t] = r
                else:
                    del rest[t]
        if coords:
            data[j] = coords
    return RationalMatrix(x.nrows, len(basis), data)


class RowSpanSolver:
    """Coordinates of vectors with respect to a fixed echelon row family.

    ``rows`` is a list of dict vectors over ``ncols`` columns in echelon
    form: every row is nonzero, and no two lead (have their least column)
    at the same column, so the rows are independent.  ``basis`` holds them
    as a k x ncols matrix.  Every caller holds such a family already, from
    ``echelon_basis`` or, for the Lie brackets, in sorted word order; a
    family that is not one raises InvariantError here, once.  ``solve`` is
    ``leading_coords`` on the rows with the lead map checked here, and
    checks membership in the span on the way.  k = 0 is valid: only the
    zero vector is in the span.
    """

    def __init__(self, rows, ncols):
        self.k = len(rows)
        self.basis = RationalMatrix.from_row_dicts(rows, self.k, ncols)
        self._rows = [self.basis.row_dict(i) for i in range(self.k)]
        self._lead = _leads(self._rows)

    def solve(self, x: RationalMatrix, space: str = "the row span") -> RationalMatrix:
        """Matrix c with c * basis == x, for x with rows over the columns.

        A row outside the span raises SubspaceEscape, naming ``space``.
        """
        if x.ncols != self.basis.ncols:
            raise ValueError(f"solve: {x.ncols} columns, expected {self.basis.ncols}")
        return leading_coords(x, self._rows, space, self._lead)

    def coords(self, vec):
        """Coordinate list c with sum_i c[i] * rows[i] == vec, or None when
        the dict vector ``vec`` is outside the span; a one-row ``solve``."""
        x = RationalMatrix.from_row_dicts([vec], 1, self.basis.ncols)
        try:
            row = self.solve(x).row_dict(0)
        except SubspaceEscape:
            return None
        return [row.get(i, 0) for i in range(self.k)]
