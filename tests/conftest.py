"""Hypothesis runs derandomized, with no deadline and no example database:
the suite stays deterministic and does not time out on a slow or shared
host.  Hypothesis also caches constants it scrapes from the source under
its home directory, database or not, so that home is a temporary directory
removed at exit and no ``.hypothesis/`` appears in the checkout."""

import tempfile
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from hypothesis import configuration, settings
from hypothesis import strategies as st

import cubix.cubical as cubical
import cubix.freelie as freelie
import cubix.realizations as realizations
from cubix.cubical import (
    coface,
    differential,
    differential_columns,
    position_action,
    position_indices,
    words,
)
from cubix.freelie import is_lyndon
from cubix.harrison import eulerian_scale, eulerian_terms, slot_action
from cubix.linalg import (
    InvariantError,
    RationalMatrix,
    SubspaceEscape,
    _clear,
    _Eliminator,
    _int_rows,
    image_basis,
)
from cubix.modules import (
    BUILTIN_KINDS,
    ModuleSpec,
    SubgroupModule,
    builtin,
    random_basis_change,
)
from cubix.perm import Permutation, PermutationGroup, symmetric_group

settings.register_profile("cubix", derandomize=True, deadline=None, database=None)
settings.load_profile("cubix")

_home = tempfile.TemporaryDirectory(prefix="cubix-hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)


def sign_subgroup_module(group):
    """The sign character of a permutation group, as a one-dimensional
    module over that group only."""
    mats = [RationalMatrix.from_rows([[g.sign()]]) for g in group.generators]
    return SubgroupModule("sgn", group, 1, mats, ["sgn"])


def diagonal_basis_change(module, diag, name):
    """The module in the basis whose vector i is scaled by the nonzero
    rational diag[i]: act(g) becomes P act(g) P^-1 for P = diag(diag).  The
    change is not unimodular, unlike ``random_basis_change``, whose shears
    keep integer generators, so act(g) has Fraction entries."""
    dim = module.dim
    p = RationalMatrix.from_row_dicts([{i: d} for i, d in enumerate(diag)], dim, dim)
    inv = [{i: 1 / Fraction(d)} for i, d in enumerate(diag)]
    p_inv = RationalMatrix.from_row_dicts(inv, dim, dim)
    mats = [p * a * p_inv for a in module.gen_actions]
    return ModuleSpec(name, module.N, dim, module.basis_labels, mats)


def halved_basis_change(module):
    """The module in the basis whose first vector is halved."""
    diag = [2] + [1] * (module.dim - 1)
    return diagonal_basis_change(module, diag, f"{module.name}~half")


def fraction_product(a, b):
    """``RationalMatrix.__mul__`` on the rational entries, with a Fraction
    product and sum per term: its oracle."""
    rows = []
    for i in range(a.nrows):
        acc = {}
        for k, x in a.row_dict(i).items():
            for j, y in b.row_dict(k).items():
                acc[j] = acc.get(j, 0) + x * y
        rows.append(acc)
    return RationalMatrix.from_row_dicts(rows, a.nrows, b.ncols)


def fraction_class_coords(basis, x):
    """Coordinate rows of the classes of x's rows in a ``CoinvariantBasis``:
    the rows of x @ W from ``fraction_product``, a Fraction per entry.  The
    oracle of ``class_block``."""
    u = fraction_product(x, basis.w_matrix)
    return {i: u.row_dict(i) for i in u.rows}


def entrywise_operator_matrix(builder, src_m, tgt_m, images):
    """``OrbitComplexBuilder.operator_matrix`` with every term's class
    coordinates emitted as Fraction entries and summed by ``from_entries``:
    its oracle."""
    src, tgt = builder.degree(src_m), builder.degree(tgt_m)
    dim = builder.module.dim
    entries = []
    for oi, orbit in enumerate(src.orbits):
        free = src.coinv[oi].free
        if not free:
            continue
        terms = {}
        for w2, c in images(orbit.rep):
            terms[w2] = terms.get(w2, 0) + c
        for w2, c in terms.items():
            if not c:
                continue
            ti, g = builder.locate(tgt, w2)
            action = builder.module.act(g)
            x = RationalMatrix.from_row_dicts([action.row_dict(f) for f in free], len(free), dim)
            for a, row in fraction_class_coords(tgt.coinv[ti], x).items():
                entries.extend(
                    (src.offsets[oi] + a, tgt.offsets[ti] + b, c * v) for b, v in row.items()
                )
    return RationalMatrix.from_entries(src.dim, tgt.dim, entries)


def coinvariants(module, group):
    """Averaging projector and a basis (row vectors) of its row space.

    The projector acts on row vectors from the right, so the row space of
    its matrix is the image of the projection and models the coinvariant
    space in characteristic zero.  It is the oracle for
    ``cubix.cubical.CoinvariantBasis``.
    """
    acc = RationalMatrix.zeros(module.dim, module.dim)
    for g in group.elements:
        acc = acc + module.act(g)
    proj = acc.scale(Fraction(1, group.order))
    basis = image_basis(proj)
    return proj, basis


def plain_reduced_echelon(int_rows, ncols):
    """[(pivot_col, row)] of a reduced row echelon basis of the span of
    ``int_rows``, {id: integer dict row}: one column-order sweep, then a
    back pass that clears each pivot column from every earlier pivot row
    that holds it.  Columns at or past ``ncols`` are carried along."""
    pivots = _Eliminator(int_rows, ncols).sweep()
    red = [row for _, row in pivots]
    for j in range(len(red) - 1, 0, -1):
        c = pivots[j][0]
        for i in range(j):
            if c in red[i]:
                red[i] = _clear(red[i], red[j], c)
    return [(c, row) for (c, _), row in zip(pivots, red)]


class TaggedInverseSolver:
    """``cubix.linalg.RowSpanSolver`` through an integer inverse of its
    pivot submatrix, with no ``leading_coords``: its oracle.  It takes any
    independent family, not only an echelon one.

    ``plain_reduced_echelon`` of the rows, row i tagged with a column
    ``ncols + i``, leaves pivot row j with d_j at its pivot, zero at every
    other pivot and tags_j in the tag columns, so T = (L / d_j) * tags_j, with
    L = lcm |d_j|, is integer and (T/L) @ S = I for the square pivot
    submatrix S.  ``solve`` maps x's pivot columns through T and checks
    every row's membership in the span with one more product.
    """

    def __init__(self, rows, ncols):
        k = len(rows)
        self.k = k
        self.basis = RationalMatrix.from_row_dicts(rows, k, ncols)
        tagged = {i: {**r, ncols + i: 1} for i, r in enumerate(rows)}
        red = plain_reduced_echelon(tagged, ncols)
        if len(red) != k:
            raise InvariantError(f"{k} rows are linearly dependent: they span {len(red)}")
        self._piv = {c: j for j, (c, _) in enumerate(red)}
        L = lcm(*(abs(row[c]) for c, row in red))
        self.scale = L
        t = {}
        for j, (c, row) in enumerate(red):
            f = L // row[c]
            t[j] = {cc - ncols: f * v for cc, v in row.items() if cc >= ncols}
        self._t = RationalMatrix(k, k, t)

    def solve(self, x, space="the row span"):
        piv = self._piv
        xp = {}
        for i, row in x.rows.items():
            r = {piv[c]: v for c, v in row.items() if c in piv}
            if r:
                xp[i] = r
        u = RationalMatrix(x.nrows, self.k, xp, x.den) * self._t
        L = self.scale
        if u * self.basis != x.scale(L):
            raise SubspaceEscape(f"a vector escapes {space}")
        return u if L == 1 else u.scale(Fraction(1, L))


def stacked_coinvariant_basis(module, stabilizer):
    """(free, W) of M_H from one plain reduced echelon form of the stacked
    rows of every act(s) - 1: the oracle of the per-generator blocks of
    ``cubix.cubical.CoinvariantBasis``.  Each row is kept as its integer
    numerators, which span the same line."""
    dim = module.dim
    ident = RationalMatrix.identity(dim)
    rows = [
        row
        for s in stabilizer.generators
        for row in (module.act(s) - ident).rows.values()
    ]
    relations = RationalMatrix(len(rows), dim, dict(enumerate(rows)))
    red = plain_reduced_echelon(_int_rows(relations), dim)
    piv = {c for c, _ in red}
    free = [j for j in range(dim) if j not in piv]
    col = {f: a for a, f in enumerate(free)}
    scale = lcm(*(abs(row[c]) for c, row in red))
    w = {f: {a: scale} for f, a in col.items()}
    for c, row in red:
        q = scale // row[c]
        w[c] = {col[f]: -q * v for f, v in row.items() if f != c}
    return free, RationalMatrix(dim, len(free), {i: r for i, r in w.items() if r}, scale)


def general_fixed_words(t_cycles, g_cycles):
    """``cubix.cubical.fixed_words`` for t of any cycle type: on a cycle of
    g of length l a fixed word is fixed by its value at one point, a fixed
    point of t^l, which fixes the cycles of t whose length divides l.  The
    oracle of the closed form."""
    return prod(sum(k for k in t_cycles if not ell % k) for ell in g_cycles)


def subset_fixed_onto_words(t_cycles, g_cycles):
    """``cubix.cubical.fixed_onto_words`` by inclusion-exclusion over every
    subset of t's cycles, 2^len(t_cycles) terms: its oracle."""
    r = len(t_cycles)
    return sum(
        (-1) ** (r - k) * general_fixed_words(sub, g_cycles)
        for k in range(r + 1)
        for sub in combinations(t_cycles, k)
    )


def per_word_position_matrix(g, n, m):
    """``cubix.cubical.position_matrix`` one word at a time, through a
    word-to-index dict: the oracle of ``position_indices``."""
    ws = words(n, m)
    index = {w: i for i, w in enumerate(ws)}
    entries = ((j, index[position_action(g, w)], 1) for j, w in enumerate(ws))
    return RationalMatrix.from_entries(len(ws), len(ws), entries)


def naive_projector(module, group, m):
    """|G| times the averaging projector on degree m of M (x) word space,
    indexed (module basis, word).  The projector is the sum over g of
    act(g) (x) position_matrix(g^-1), so row (a, j) gains act(g)[a][b] at
    column (b, g^-1.w_j).  Naive mode once eliminated all of its rows; it
    is the oracle of the spanning rows of ``cubix.cubical._naive_basis``."""
    n = group.degree
    size = m ** n
    rows = [{} for _ in range(module.dim * size)]
    for g in group.elements:
        idx = position_indices(g.inverse(), n, m)
        action = module.act(g)
        for a in action.rows:
            arow = action.row_dict(a)
            for row, i in zip(rows[a * size : (a + 1) * size], idx):
                for b, v in arow.items():
                    c = b * size + i
                    row[c] = row.get(c, 0) + v
    return RationalMatrix.from_row_dicts(rows, len(rows), len(rows))


def kron_naive_projector(module, group, m):
    """|G| times the averaging projector, summed entry by entry from
    act(g) (x) position_matrix(g^-1) over g in G: the oracle of
    ``naive_projector``."""
    n = group.degree
    size = module.dim * m ** n
    kron = (module.act(g).kron(per_word_position_matrix(g.inverse(), n, m)) for g in group.elements)
    entries = ((i, j, v) for k in kron for i in k.rows for j, v in k.row_dict(i).items())
    return RationalMatrix.from_entries(size, size, entries)


def entrywise_differential(n, m):
    """``cubix.cubical.differential`` summed entry by entry from its
    columns: its oracle."""
    rows = differential_columns(n, m)
    entries = ((j, i, c) for j, row in enumerate(rows) for i, c in row.items())
    return RationalMatrix.from_entries(m ** n, (m + 1) ** n, entries)


def coface_differential_columns(n, m):
    """``cubix.cubical.differential_columns`` summed from the ``coface``
    images of every source word, through a word-to-index dict: its
    oracle, key order included."""
    tgt_index = {w: i for i, w in enumerate(words(n, m + 1))}
    cols = []
    for w in words(n, m):
        acc = {}
        for i in range(m + 2):
            s = -1 if i % 2 else 1
            for t in coface(i, w, m):
                j = tgt_index[t]
                acc[j] = acc.get(j, 0) + s
        cols.append({j: c for j, c in acc.items() if c})
    return tuple(cols)


def clear_realization_caches():
    """Empty every cache a direct complex reads through, so that a test
    which patches a name of ``realizations.py`` or ``freelie.py`` sees the
    patch."""
    for cached in (
        realizations._necklaces,
        freelie.lie_projector_basis,
        freelie.lyndon_expansion,
    ):
        cached.cache_clear()
    cubical._full_ranks.clear()


def product_lie_differential(n, m):
    """``substitution_differential("lie", n, m)`` as a product with the
    whole word differential, solved in the target Lyndon basis by
    ``TaggedInverseSolver``: its oracle."""
    src = realizations._degree_basis("lie", n, m)
    tgt = TaggedInverseSolver(list(realizations._degree_basis("lie", n, m + 1)), (m + 1) ** n)
    images = RationalMatrix.from_row_dicts(src, len(src), m ** n)
    return tgt.solve(images * differential(n, m))


def filtered_lyndon_words(m, n):
    """Every word of length n over 1..m that ``is_lyndon`` accepts, in lex
    order: the oracle of ``cubix.freelie.lyndon_words``."""
    return [w for w in product(range(1, m + 1), repeat=n) if is_lyndon(w)]


def rotation_class(w):
    """The lexicographically least rotation of the word w."""
    return min(w[i:] + w[:i] for i in range(len(w)))


def rotation_class_necklaces(m, n):
    """The least rotations of every word of ``words(n, m)``, sorted: the
    oracle of ``cubix.realizations.necklace_representatives``."""
    return sorted({rotation_class(w) for w in words(n, m)})


def rotation_class_tr_differential(n, m):
    """``substitution_differential("tr", n, m)`` with every target word's
    class read by ``rotation_class`` through word-to-index dicts: its
    oracle."""
    src, tgt = rotation_class_necklaces(m, n), rotation_class_necklaces(m + 1, n)
    col = {w: r for r, w in enumerate(tgt)}
    src_index = {w: i for i, w in enumerate(words(n, m))}
    tgt_words = words(n, m + 1)
    rows = coface_differential_columns(n, m)
    entries = (
        (j, col[rotation_class(tgt_words[i])], c)
        for j, w in enumerate(src)
        for i, c in rows[src_index[w]].items()
    )
    return RationalMatrix.from_entries(len(src), len(tgt), entries)


def entrywise_eulerian_matrix(n, m):
    """``cubix.harrison.word_eulerian_matrix`` summed entry by entry from
    ``slot_action`` on every word, a Fraction per term: its oracle."""
    ws = words(n, m)
    index = {w: i for i, w in enumerate(ws)}
    scale = eulerian_scale(m)
    entries = (
        (j, index[slot_action(s.inverse(), w)], Fraction(coeff, scale))
        for s, coeff in eulerian_terms(m)
        for j, w in enumerate(ws)
    )
    return RationalMatrix.from_entries(len(ws), len(ws), entries)


@st.composite
def modules_and_groups(draw):
    """A basis change of a builtin on at most 4 slots, over S_n or over the
    group generated by one or two random permutations."""
    kind = draw(st.sampled_from(BUILTIN_KINDS))
    k = draw(st.integers(1, 3 if kind == "lie_cyclic" else 4))
    module = random_basis_change(builtin(kind, k), draw(st.integers(0, 10 ** 6)))
    n = module.N
    if draw(st.booleans()):
        return module, symmetric_group(n)
    perms = st.permutations(range(1, n + 1)).map(lambda p: Permutation(tuple(p)))
    return module, PermutationGroup(n, tuple(draw(st.lists(perms, min_size=1, max_size=2))))
