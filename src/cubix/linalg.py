"""Exact sparse linear algebra over the rationals.

A matrix holds integer numerators over one positive denominator: ``rows``
is row-major nested dicts ``{row: {col: numerator}}`` in which no zero is
stored, and ``den`` is the denominator.  The pair is kept reduced, the gcd
of ``den`` and every numerator being 1, so equal matrices have equal
fields, and a matrix of integers has den 1.  Arithmetic runs on the
numerators alone: a product multiplies integer rows over the product of
the two dens, a sum brings both operands over the lcm of theirs, and the
result is reduced only when its den is above 1, so the all-integer case
does no extra work.  ``from_rows``, ``from_row_dicts`` and
``from_entries`` take int and Fraction entries and bring them over the lcm
of their denominators; ``entry``, ``row_dict``, ``to_rows`` and ``trace``
give rationals back, an int where the value is one.

Vectors are rows, and every map of the package has one orientation: its
matrix holds one row per source basis vector, namely that vector's image,
so a map from a space of dimension a to one of dimension b is a x b, and
``x * A * B`` applies A, then B.  Module actions, differentials, word
operators and coordinates all follow it, so no caller converts.

Elimination never divides.  Each row of numerators is stripped to content
1, and a pivot step replaces ``row`` by ``row * pivot_value - pivot_row *
row_value`` followed by a gcd strip.  Row scaling by nonzero rationals
preserves rank, the right kernel, and the set of pivot columns under a
fixed column order, which is all the routines below rely on; so they read
``rows`` and never ``den``.

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


def _ratio(v: int, den: int):
    """v / den for an int v and a positive int den: an int when den divides
    v, else a reduced Fraction."""
    return Fraction(v, den) if v % den else v // den


def parse_scalar(s: str):
    s = s.strip()
    if "/" in s:
        v = Fraction(s)
        return _ratio(v.numerator, v.denominator)
    return int(s)


class RationalMatrix:
    """Sparse matrix of integer numerators ``rows`` over one positive
    denominator ``den``, kept reduced (module docstring)."""

    __slots__ = ("nrows", "ncols", "rows", "den")

    def __init__(self, nrows: int, ncols: int, rows=None, den: int = 1):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}
        if den != 1:
            g = den
            for row in self.rows.values():
                g = gcd(g, *row.values())
                if g == 1:
                    break
            if g > 1:
                self.rows = {i: {j: v // g for j, v in r.items()} for i, r in self.rows.items()}
                den //= g
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows, ncols=None):
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls.from_row_dicts([dict(enumerate(row)) for row in rows], len(rows), ncols)

    @classmethod
    def from_row_dicts(cls, dicts, nrows, ncols):
        entries = ((i, j, v) for i, d in enumerate(dicts) for j, v in d.items())
        return cls.from_entries(nrows, ncols, entries)

    @classmethod
    def from_entries(cls, nrows, ncols, triples):
        """The sum of the int and Fraction values given at each (i, j), over
        the lcm of the denominators of the sums."""
        data = {}
        for i, j, v in triples:
            row = data.setdefault(i, {})
            row[j] = row.get(j, 0) + v
        den = lcm(*(v.denominator for row in data.values() for v in row.values()))
        data = {i: {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
                for i, row in data.items()}
        return cls(nrows, ncols, {i: row for i, row in data.items() if row}, den)

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
        return _ratio(self.rows.get(i, {}).get(j, 0), self.den)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def to_rows(self):
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def row_dict(self, i):
        """Row i as {col: rational entry}."""
        row = self.rows.get(i, {})
        if self.den == 1:
            return row
        return {j: _ratio(v, self.den) for j, v in row.items()}

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product: integer rows times integer rows, over the product of
        the dens (module docstring)."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        data = {}
        orows = other.rows
        for i, arow in self.rows.items():
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
            if 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                data[i] = acc
        return RationalMatrix(self.nrows, other.ncols, data, self.den * other.den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, s):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        f, s = den // self.den, s * (den // other.den)
        data = {i: {j: f * v for j, v in r.items()} for i, r in self.rows.items()}
        for i, orow in other.rows.items():
            row = data.setdefault(i, {})
            for j, v in orow.items():
                cur = row.get(j, 0) + s * v
                if cur:
                    row[j] = cur
                elif j in row:
                    del row[j]
            if not row:
                del data[i]
        return RationalMatrix(self.nrows, self.ncols, data, den)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """The matrix times the int or Fraction c."""
        c = Fraction(c)
        num = c.numerator
        data = {i: {j: num * v for j, v in r.items()} for i, r in self.rows.items()} if num else {}
        return RationalMatrix(self.nrows, self.ncols, data, self.den * c.denominator)

    def transpose(self) -> "RationalMatrix":
        data = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                data.setdefault(j, {})[i] = v
        return RationalMatrix(self.ncols, self.nrows, data, self.den)

    def trace(self):
        return _ratio(sum(r.get(i, 0) for i, r in self.rows.items()), self.den)

    def product_trace(self, other: "RationalMatrix"):
        """trace(self * other), the sum of self[i][k] other[k][i], without
        forming the product."""
        orows = other.rows
        total = 0
        for i, row in self.rows.items():
            for k, v in row.items():
                brow = orows.get(k)
                if brow:
                    total += v * brow.get(i, 0)
        return _ratio(total, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self.den == other.den and self.rows == other.rows

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()}, den={self.den})"

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        """Kronecker product; this matrix indexes the coarse blocks."""
        p, q = other.nrows, other.ncols
        data = {}
        for i, arow in self.rows.items():
            for k, brow in other.rows.items():
                out = {}
                for j, a in arow.items():
                    for l, b in brow.items():
                        out[j * q + l] = a * b
                data[i * p + k] = out
        return RationalMatrix(self.nrows * p, self.ncols * q, data, self.den * other.den)


def _int_row(row: dict) -> dict:
    """The integer row divided by the gcd of its entries: content 1."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def normalize_int_vector(vec):
    """Scale to content 1 and a positive first nonzero entry.

    ``vec`` is a dict {index: int}; returns a new dict.  The zero vector
    comes back empty.
    """
    ints = _int_row({j: v for j, v in vec.items() if v})
    if ints and ints[min(ints)] < 0:
        return {j: -v for j, v in ints.items()}
    return ints


def _int_rows(matrix: RationalMatrix):
    """The nonzero rows of numerators, each stripped to content 1."""
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

    ``basis`` is a sequence of integer dict vectors in echelon form: each
    leads at its least column, and no two lead at the same column
    (``_leads`` checks this, unless its result is passed as ``lead``).  The
    least column of a row of x then leads at most one basis vector, whose
    multiple is stripped; what is left starts at a larger column, so the
    strip ends.  A least column that leads no basis vector raises
    SubspaceEscape, naming ``space``.  This is the one place coordinates
    are read off a basis.

    The strip runs on x's numerators and never divides: where the leading
    entry p does not divide the entry v to strip, what is left of the row
    and the coordinates found so far are first multiplied by |p| / gcd(v, p),
    which the row's denominator takes on.  The rows are brought over the
    lcm of their denominators, times x.den, once at the end.
    """
    if lead is None:
        lead = _leads(basis)
    data, dens = {}, {}
    for j, row in x.rows.items():
        coords = {}
        rest = dict(row)
        den = 1
        while rest:
            k = min(rest)
            found = lead.get(k)
            if found is None:
                raise SubspaceEscape(f"a vector escapes {space}")
            i, p = found
            v = rest[k]
            if v % p:
                g = gcd(v, p)
                f = abs(p) // g
                rest = {t: f * r for t, r in rest.items()}
                coords = {t: f * c for t, c in coords.items()}
                den *= f
                v *= f
            c = coords[i] = v // p
            for t, b in basis[i].items():
                r = rest.get(t, 0) - c * b
                if r:
                    rest[t] = r
                else:
                    del rest[t]
        data[j] = coords
        dens[j] = den
    den = lcm(*dens.values())
    if den != 1:
        for j, d in dens.items():
            if d != den:
                data[j] = {i: c * (den // d) for i, c in data[j].items()}
    return RationalMatrix(x.nrows, len(basis), data, den * x.den)


class RowSpanSolver:
    """Coordinates of vectors with respect to a fixed echelon row family.

    ``rows`` is a list of integer dict vectors over ``ncols`` columns in
    echelon form: every row is nonzero, and no two lead (have their least
    column) at the same column, so the rows are independent.  ``basis`` holds them
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
        self._rows = [self.basis.rows.get(i, {}) for i in range(self.k)]
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
