"""Word complexes and their coinvariant quotients under permutation actions.

Degree m of the full complex is the word space (k^m)^{tensor n}: basis words
w map positions {1..n} to slots {1..m}.  The cofaces are

* d0: every letter j becomes j+1;
* di (1 <= i <= m): letters below i unchanged, letters above i shift up,
  every letter equal to i splits into the sum over {i, i+1};
* d(m+1): the plain inclusion into slots [m+1];

and the differential is the alternating sum d = sum_i (-1)^i d^i, acting
diagonally on tensor factors.  Degree 0 is zero (there are no functions into
an empty slot set), and reporting Betti numbers through m_max requires the
differential out of degree m_max, so complexes are built through degree
m_max + 1.

The group G permutes positions on the left, (g.w)(p) = w(g^{-1}(p)), and a
right module M is tensored over G via the transfer identity
x (x) g.w = x.g (x) w.  Three constructions are provided:

* orbit mode decomposes each degree into G-orbits of words; the block of
  the complex at an orbit is the coinvariant space of M under the orbit
  representative's stabilizer.  Any word operator that commutes with the
  position action is assembled by ``OrbitComplexBuilder.operator_matrix``:
  each term g.w_rep of the image of a representative is rewritten through
  the transfer identity and projected into the target orbit's coinvariant
  basis.  The differential is one such operator; the Dynkin element and
  the Eulerian idempotent of ``harrison.py`` are others;
* quotient mode runs the same orbit builder on the surjective-word
  quotient Q below, which vanishes above degree n, and reads the full
  complex's dimensions off traces; no matrix larger than Q is built;
* the isotypic mode splits M into the irreducible S_N-modules and runs
  quotient mode on each; see "The isotypic route" below;
* naive mode works in the full space M (x) (k^m)^{tensor n}.  It spans the
  image of the diagonal averaging projector P by the images P(e_a (x) w)
  of one word w per position orbit, the word of least index: P(v.g) = P(v),
  so the other words add nothing.  Each image is summed over every g of G
  from act(g) and the permutation of the words by g^{-1}
  (``position_indices``), and one sweep reduces them to an echelon basis
  (``echelon_basis``), the form ``RowSpanSolver`` reads.  The full
  differential is then restricted to that image: each basis vector is
  pushed through ``differential_columns`` one module block at a time
  (``apply_differential``).  It exists purely as an oracle.

Every route counts its size before it builds a matrix and refuses a size
above ``cap`` (``check_cap``): orbit and quotient mode count the trace
dimensions of the degrees they build plus dim M per ``CoinvariantBasis``
they build, one for each distinct stabilizer and for each prefix of its
generators (``basis_groups``; at the default m_max the prefixes are
stabilizers too), naive mode |G| dim M (m_max + 1)^n, |G| times the size of
its top degree, and ``full_complex`` its dimensions.  The isotypic route
sums the quotient sizes of its irreducibles (``_counted``).  Quotient
mode builds no degree above n, but it counts the full dimensions through
m_max + 1, and each count reads the cycle type of every term of P_m
("Dimensions come from traces" below), so it then refuses the total length
of those cycle types, degree by degree before each is read: m for the
identity, the sum of m/d over squarefree d | m for D_m.  The Harrison
complex of ``harrison.py`` counts as the word complex does, and then the
2^(m-1) terms of its Dynkin element D_m applied to every orbit of each
degree m it builds; that count involves no module, so on the isotypic
route each irreducible's run refuses it before its first term.

All modes must agree on dimensions and Betti tables; that equality is part
of the acceptance suite, so naive mode is not allowed to borrow pieces of
the orbit builder (no orbit, transfer or coinvariant code; a tier-1 test
checks the names): shared code stops at the coface rule above.  The word
differential that ``full_complex``, naive mode and the realizations read
is built from its inverse letter maps (``differential_columns``), and the
orbit route applies ``coface`` to each representative; both implement the
rule, and a tier-1 test pins them equal.  Orbit mode builds the full
complex and does not use the quotient, so it is the oracle of quotient
mode.

The surjective-word quotient
----------------------------
Words that leave some slot of [m] empty span a subcomplex S of the word
complex C: d^0 empties slot 1, d^{m+1} empties slot m+1, d^i for a letter i
the word does not use empties slots i and i+1, and every other coface term
keeps an empty slot empty (shifted).  S is G-stable, and Q = C/S has in
degree m the words onto [m], so Q is zero above degree n.  On Q only the
inner cofaces d^1..d^m survive, and of their terms only those that send
letter i to both i and i+1.

Claim: C -> Q is a quasi-isomorphism, and so is M (x)_G C -> M (x)_G Q.

Filter C by image size: F^r, spanned by the words w with |im w| >= r, is a
subcomplex, because no coface term shrinks an image, and F^{n+1} = 0.  A
word with image A, |A| = r, is i_A o s, with s: [n] -> [r] onto and i_A
the increasing map [r] -> A.  Modulo F^{r+1} every coface keeps s and acts
on A alone: d^0 by A -> A + 1, d^{m+1} by inclusion, and d^i by shifting
the elements above i and, when i is in A, by the sum of sending i to i and
sending i to i+1; the terms that split the occurrences of i between i and
i+1 have a larger image and vanish.  So F^r/F^{r+1} = k{Surj(n, r)} (x) I_r,
where I_r has in degree m the r-subsets of [m] with these cofaces (it is
the span of the increasing injective words on r positions).

Lemma: H(I_r) is k in degree r and 0 elsewhere, for I_r in degrees m >= 0.
Induction on r.  I_0 is k{empty set} in every degree, with d = 0 from even
and d = 1 from odd degrees (an alternating sum of m+2 ones), so
H(I_0) = k in degree 0.  For r >= 1, the subsets avoiding 1 span a
subcomplex K: d^0 and d^1 both shift such a set by one, and d^i, i >= 2,
fix 1.  Modulo K, d^0 and the "1 -> 2" term of d^1 vanish, and d^i acts on
B, where A = {1} u (B + 1), as d^{i-1}; so I_r/K is I_{r-1} raised one
degree with d negated, and has cohomology k in degree r.  On K, d^0 and d^1
agree and cancel, so under A = A' + 1 the differential of K is -D' on I_r
one degree lower, where D' = sum_{j>=1} (-1)^j d^j.  Deleting slot 1, h(A) = A - 1 if
1 is not in A and h(A) = 0 otherwise, gives h D' + D' h = -1 in every
degree (d^1 moves the smallest element 1 to 2 or shifts A by one, and
h d^j = d^{j-1} h for j >= 2).  So K is acyclic and H(I_r) = H(I_r/K).

In degree r, I_r is k{[r]} and d = 0 on it, so by the lemma I_r truncated
to degrees > r is acyclic.  That truncation tensored with k{Surj(n, r)} is
F^r S/F^{r+1} S, so every graded piece of S is acyclic; the filtration is
finite, so S is acyclic and H(C) = H(Q).  (Equivalently, the spectral
sequence of the filtration has E_1 = Q and collapses at E_2.)  Everything
here commutes with G, which acts on the positions only, and M (x)_G - is
exact over the rationals (kG is semisimple), so it keeps S acyclic.

Dimensions come from traces.  Both complexes of this package are, degree by
degree, the image of a word operator P = sum_t c_t slot(t), a combination of
letter relabelings (t * w)(p) = t(w(p)), which commute with the position
action: the word complex is im 1, and the Harrison complex of
``harrison.py`` is im D_m.  When P P = q P in Q[S_m] for an integer q > 0
(q = 1 for the identity, q = m for D_m), P/q is an idempotent, whose rank is
its trace, so dim im P = tr(P)/q.  For a G-set X of words, M (x)_G k{X} is
the image of the averaging idempotent (1/|G|) sum_g g (x) g, so a
G-equivariant T has trace (1/|G|) sum_g chi_M(g) tr(g T) on it, and g slot(t)
permutes the words, so its trace counts the words it fixes:

    dim im P = (1/(|G| q)) sum_g chi_M(g) sum_t c_t fixed(t, g).

A word fixed by g slot(t) satisfies w(g(p)) = t(w(p)), so it is free at one
point of each cycle of g, of length l, where it takes a value fixed by t^l;
fixed(t, g) depends only on the cycle types of t and g.  Every term t of
the two operators has one cycle length: the identity has type 1^m, and the
class sums of D_m sit on the types d^(m/d).  For t of type d^k and g with
c cycles, t^l fixes all dk letters when d | l and none otherwise, so
fixed(t, g) is (dk)^c when d divides every cycle length of g and 0
otherwise (``fixed_words``).  Over Q the word must also be onto [m]: its
image is then a union of cycles of t, and inclusion-exclusion over the
binom(k, j) sets of j cycles, each holding the image of (dj)^c fixed words,
counts the onto words, sum_j (-1)^(k-j) binom(k, j) (dj)^c under the same
condition (``fixed_onto_words``); a type with two cycle lengths is
refused.  For P = 1, with c(g) cycles in g, that leaves m^{c(g)} words of
degree m, of which m! S(c(g), m) are onto [m].
The other two factors are read in closed form where one is known: chi_M of
a builtin module from ``modules.closed_character``, one class at a time
(any other module is traced: over S_N once per module, on the block-Coxeter
words of the classes, ``ModuleSpec.traced``), and the c_t summed by the
cycle type of t from ``trace(m)``, for D_m ``harrison.dynkin_trace``.  The
inner sum, sum_t c_t fixed(t, g) at each class representative g, involves
no module: ``_count_table`` keeps it once per process for each (group,
trace, m, fixed_words or fixed_onto_words), so a count is p(n) products
with chi_M, and every module counted over the same group reads the same
table.
``operator_complex`` builds all three routes, orbit, quotient and
isotypic, from one (images, trace) pair.
Since betti_m = dim_m - rank_d(m) - rank_d(m-1), the ranks of the full
differential follow from Q's Betti numbers: rank_d(m) = dim_m - betti_m -
rank_d(m-1), with betti_m = 0 for m > n.

The isotypic route
------------------
M (x)_G C is additive in M: a direct sum of modules gives the direct sum
of complexes, degree by degree and differential by differential.  A word
operator P acts on the word factor alone, so it respects that sum, and
im P is additive in M too: the word complex im 1 and the Harrison complex
im D_m alike.  So every row (dim, rank_d, betti) of the Betti table of
im P is additive.  By Frobenius reciprocity M (x)_G C =
(Ind_G^{S_N} M) (x)_{S_N} C, since M (x)_G k{X} = (M (x)_G kS_N)
(x)_{S_N} k{X} for any S_N-set X, and P commutes with that isomorphism.
Over Q the induced module is a direct sum of irreducibles,
Ind M = sum over lambda of V_lambda^(a_lambda), with
a_lambda = <Ind chi_M, chi_lambda>_{S_N} = <chi_M, Res chi_lambda>_G.  So
M's table is the sum of a_lambda times V_lambda's.

The isotypic mode of ``operator_complex`` (``_isotypic_complex``) reads
chi_M on the class representatives of G (closed for a builtin kind, so
its module is never built, and traced for any other), computes each
a_lambda against the Murnaghan-Nakayama chi_lambda
(``modules.multiplicities``), builds V_lambda in Young's seminormal form
for each a_lambda > 0 (``modules.specht``), runs quotient mode on
V_lambda over S_N with the same (images, trace) pair, and sums the Betti
numbers and dimensions weighted by a_lambda.  Every a_lambda must be a
non-negative integer, sum a_lambda chi_lambda(1) must be dim Ind M, the
summed dimensions must equal M's own trace counts, and each V_lambda's
run passes the quotient route's checks; every failure is an
``InvariantError``.  The ranks then follow by the quotient's one rule,
rank_d(m) = dim_m - betti_m - rank_d(m-1) (``QuotientComplex``), and are
the a_lambda-weighted sums, since the summed dimensions are checked.  A
V_lambda has dimension at most sqrt(N!), so ``full`` (f_lambda copies of
each V_lambda) builds matrices of a few hundred rows where its quotient
has the Fubini number of orbits.  The quotient route on M stays the
oracle of this one.

Every V_lambda runs over the same S_N and the same Q, so what does not
depend on the module is built once per process and read by each of them
(and by every module ``verify`` runs over one S_n): the orbits of Q with
their Young stabilizers (``_young_orbits``, keyed by (n, m, surjective)),
each stabilizer's generator prefixes (``prefix_groups``, by group), the
count tables (``_count_table``, by (group, trace, m, fixed)), so M's word
dimensions and every V_lambda's size and dimensions are dot products with
one table per degree, and each operator's skeleton: each term of its image
of a representative located once, as (target orbit, transfer g,
coefficient) (``_young_located``, by (n, degrees, surjective, operator)),
for the differential and D_m alike.  A V_lambda's own work is its
coinvariant bases, act(g) on the located transfers, the class blocks and
the ranks.
"""

from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm

from .linalg import (
    InvariantError,
    RationalMatrix,
    RowSpanSolver,
    SubspaceEscape,
    echelon_basis,
    rank,
)
from .modules import (
    character_count,
    multiplicities,
    specht,
    specht_character,
)
from .perm import (
    Permutation,
    PermutationGroup,
    class_cycle_types,
    generated_subgroup,
    partition_count,
    symmetric_group,
    young_subgroup,
)

DEFAULT_CAP = 450000


class DimensionCapExceeded(RuntimeError):
    """The size count of a route, ``required``, is above ``cap``; raised
    before any matrix is built (module docstring)."""

    def __init__(self, required, cap, what):
        super().__init__(
            f"{what} is {required}, above the cap {cap}; raise it with --cap "
            "to force the computation"
        )
        self.required = required
        self.cap = cap


def check_cap(required: int, cap: int, what: str) -> None:
    if required > cap:
        raise DimensionCapExceeded(required, cap, what)


# -- words ----------------------------------------------------------------


def words(n: int, m: int) -> list:
    """All words of length n over slots 1..m, lexicographic."""
    return list(product(range(1, m + 1), repeat=n))


def surjective_words(n: int, m: int) -> list:
    """The words of ``words(n, m)`` that use every slot, in the same order."""
    out = []

    def extend(prefix, used):
        left = n - len(prefix)
        if not left:
            if bin(used).count("1") == m:
                out.append(prefix)
            return
        for x in range(1, m + 1):
            now = used | 1 << x
            # the positions after this one must still cover every unused slot
            if m - bin(now).count("1") < left:
                extend(prefix + (x,), now)

    extend((), 0)
    return out


def position_action(g: Permutation, w):
    """(g.w)(p) = w(g^{-1}(p)); a left action permuting tensor positions."""
    inv = g.inverse().images
    return tuple(w[inv[p] - 1] for p in range(len(w)))


def position_indices(g: Permutation, n: int, m: int, t: Permutation = None) -> list:
    """The index in ``words(n, m)`` of t * (g.w), for each word w in that
    order; with no ``t``, of g.w.

    The letter x at position q of w becomes t(x) at position g(q), whose
    place value in the lexicographic order is m^(n - g(q)).
    """
    digits = range(m) if t is None else [x - 1 for x in t.images]
    out = [0]
    for gq in g.images:
        step = m ** (n - gq)
        out = [i + d * step for i in out for d in digits]
    return out


def position_matrix(g: Permutation, n: int, m: int) -> RationalMatrix:
    """Matrix of w -> g.w on the degree-m word space."""
    idx = position_indices(g, n, m)
    return RationalMatrix(len(idx), len(idx), {j: {i: 1} for j, i in enumerate(idx)})


def coface(i: int, w, m: int) -> list:
    """Images of w under d^i into slots [m+1], all with coefficient +1."""
    if not 0 <= i <= m + 1:
        raise ValueError(f"coface index {i} out of range for m={m}")
    if i == 0:
        return [tuple(x + 1 for x in w)]
    if i == m + 1:
        return [tuple(w)]
    out = [()]
    for x in w:
        if x < i:
            out = [o + (x,) for o in out]
        elif x > i:
            out = [o + (x + 1,) for o in out]
        else:
            out = [o + (y,) for o in out for y in (i, i + 1)]
    return out


@lru_cache(maxsize=None)
def differential_columns(n: int, m: int):
    """Per source word of degree m: {target word index: coefficient}, the
    rows of ``differential(n, m)``.

    Under d^i a target letter y (0-based) has the one source letter x = y
    if y < i, else y - 1, and none unless 0 <= x < m.  So d^i sends each
    target index to at most one source index, built digit by digit as in
    ``position_indices``; a missing letter adds -m^n, making the index
    negative.  Cofaces in order, targets ascending: the order ``coface``
    gives each row's keys.
    """
    size = m ** n
    targets = list(range((m + 1) ** n))
    rows = [{} for _ in range(size)]
    for i in range(m + 2):
        s = -1 if i % 2 else 1
        letters = [y if y < i else y - 1 for y in range(m + 1)]
        sources = [0]
        for p in range(n - 1, -1, -1):
            digits = [x * m ** p if 0 <= x < m else -size for x in letters]
            sources = [a + d for a in sources for d in digits]
        for j, k in zip(targets, sources):
            if k >= 0:
                row = rows[k]
                row[j] = row.get(j, 0) + s
    # free every accumulator before the cached rows are allocated, so they
    # pack densely: built amid the accumulators, they raise peak RSS
    items = [[(j, c) for j, c in row.items() if c] for row in rows]
    del rows
    return tuple([dict(x) for x in items])


def differential(n: int, m: int) -> RationalMatrix:
    """The map C^m -> C^{m+1} on word spaces.  Its rows are the cached
    ``differential_columns`` themselves, not copies, so no caller may
    change them; a zero row is left out, as in every matrix."""
    rows = differential_columns(n, m)
    return RationalMatrix(m ** n, (m + 1) ** n, {j: row for j, row in enumerate(rows) if row})


def apply_differential(x: RationalMatrix, rows, tsize: int) -> RationalMatrix:
    """The rows of x pushed through the word differential, one block of
    len(rows) word coordinates at a time: coordinate a len(rows) + j of a
    row goes to a tsize + t with coefficient rows[j][t], over x's den.
    ``rows`` is ``differential_columns(n, m)`` and tsize is (m + 1)^n."""
    size = len(rows)
    out = {}
    for i, row in x.rows.items():
        acc = {}
        for k, v in row.items():
            a, j = divmod(k, size)
            off = a * tsize
            for t, c in rows[j].items():
                acc[off + t] = acc.get(off + t, 0) + v * c
        acc = {t: c for t, c in acc.items() if c}
        if acc:
            out[i] = acc
    return RationalMatrix(x.nrows, x.ncols // size * tsize, out, x.den)


# -- complexes and Betti tables -------------------------------------------


class CochainComplex:
    """Spaces for degrees 1..m_max+1 and differentials for 1..m_max.

    diffs[m] maps degree m to degree m+1, shape dims[m] x dims[m+1]: one
    row per basis vector of degree m, its image.
    """

    def __init__(self, label: str, n_slots: int, m_max: int, dims: dict, diffs: dict):
        for m in range(1, m_max + 1):
            d = diffs[m]
            if d.shape != (dims[m], dims[m + 1]):
                raise ValueError(
                    f"{label}: differential {m} has shape {d.shape}, "
                    f"expected {(dims[m], dims[m + 1])}"
                )
        self.label = label
        self.n_slots = n_slots
        self.m_max = m_max
        self.dims = dims
        self.diffs = diffs
        self._ranks = {}

    def rank_d(self, m: int) -> int:
        if m < 1 or m > self.m_max:
            return 0
        r = self._ranks.get(m)
        if r is None:
            r = rank(self.diffs[m])
            self._ranks[m] = r
        return r

    def check_d_squared(self) -> bool:
        for m in range(1, self.m_max):
            if not (self.diffs[m] * self.diffs[m + 1]).is_zero():
                return False
        return True

    def betti_number(self, m: int) -> int:
        return self.dims[m] - self.rank_d(m) - self.rank_d(m - 1)

    def betti_table(self) -> "BettiTable":
        rows = [
            BettiRow(m, self.dims[m], self.rank_d(m), self.betti_number(m))
            for m in range(1, self.m_max + 1)
        ]
        return _checked_table(self.label, self.n_slots, rows)


class Record:
    """A plain record: its attributes are its fields, and two records are
    equal when they are of one class with equal fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class BettiRow(Record):
    def __init__(self, m: int, dim: int, rank: int, betti: int):
        self.m = m
        self.dim = dim
        self.rank = rank
        self.betti = betti

    def __repr__(self):
        return f"BettiRow(m={self.m}, dim={self.dim}, rank={self.rank}, betti={self.betti})"


class BettiTable(Record):
    def __init__(self, label: str, n_slots: int, rows: tuple):
        self.label = label
        self.n_slots = n_slots
        self.rows = rows

    def bettis(self) -> tuple:
        return tuple(row.betti for row in self.rows)

    def graded_symbol(self) -> str:
        parts = []
        for row in self.rows:
            if row.betti == 1:
                parts.append(f"k[-{row.m}]")
            elif row.betti > 1:
                parts.append(f"k[-{row.m}]^{row.betti}")
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {
            "family": self.label,
            "n": self.n_slots,
            "rows": [
                {"m": r.m, "dim": r.dim, "rank_d": r.rank, "betti": r.betti}
                for r in self.rows
            ],
        }


def _checked_table(label: str, n: int, rows) -> BettiTable:
    for row in rows:
        if row.betti < 0 or row.betti > row.dim:
            raise InvariantError(f"{label}: impossible Betti row {row}")
    return BettiTable(label, n, tuple(rows))


# n -> {m: rank of the word differential out of degree m}, for every full(n)
_full_ranks = {}


def full_complex(n: int, m_max: int, cap: int = DEFAULT_CAP) -> CochainComplex:
    """The plain word complex: dimension m^n in degree m.  Each call's
    differentials, built after the cap check, hold the cached rows of
    ``differential_columns`` and copy none; a rank depends on (n, m) alone,
    so the ranks are shared by every full(n) and none is computed twice."""
    check_cap(sum(m ** n for m in range(1, m_max + 2)), cap, f"the size of full(n={n})")
    dims = {m: m ** n for m in range(1, m_max + 2)}
    diffs = {m: differential(n, m) for m in range(1, m_max + 1)}
    cx = CochainComplex(f"full(n={n})", n, m_max, dims, diffs)
    cx._ranks = _full_ranks.setdefault(n, {})
    return cx


# -- orbit decomposition ---------------------------------------------------


def compositions(total: int, parts: int):
    """Weak compositions, lexicographically by leading part descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def sorted_word(content):
    out = []
    for letter, count in enumerate(content, start=1):
        out.extend([letter] * count)
    return tuple(out)


def sort_transfer(w):
    """(rep, g) with rep sorted and w = g.rep; the stable sort makes g
    deterministic."""
    order = sorted(range(len(w)), key=w.__getitem__)
    return tuple(map(w.__getitem__, order)), Permutation(tuple([p + 1 for p in order]))


class Orbit(Record):
    def __init__(self, rep: tuple, stabilizer: PermutationGroup, transfers: dict = None):
        self.rep = rep
        self.stabilizer = stabilizer
        # proper subgroups only: {word: g} with word = g.rep for every member
        self.transfers = transfers


def orbit_decomposition(
    n: int, m: int, group: PermutationGroup, surjective: bool = False
) -> list:
    """Orbits of the position action on degree-m words, or with
    ``surjective`` only on the words that use every slot.

    For the full symmetric group the orbits are the letter contents (the
    positive ones when ``surjective``) and the stabilizers are Young
    subgroups; proper subgroups fall back to explicit closure with
    lexicographically least representatives, record the transfer of every
    member, and give each stabilizer a greedy generating set, built once per
    distinct stabilizer.
    """
    if group.is_symmetric():
        return list(_young_orbits(n, m, surjective))
    orbits = []
    stabilizers = {}
    for rep, members in _subgroup_orbits(n, m, group, surjective):
        fixing = tuple(g for g in group.elements if position_action(g, rep) == rep)
        stab = stabilizers.get(fixing)
        if stab is None:
            stab = stabilizers[fixing] = generated_subgroup(n, fixing)
        orbits.append(Orbit(rep, stab, members))
    return orbits


@lru_cache(maxsize=None)
def _young_orbits(n: int, m: int, surjective: bool) -> tuple:
    """The orbits under S_n, shared by every builder: the isotypic route
    meets them once per irreducible."""
    if not surjective:
        contents = compositions(n, m)
    elif m <= n:
        # the positive ones, in the same order: one more in each part
        contents = (tuple(x + 1 for x in c) for c in compositions(n - m, m))
    else:
        contents = ()
    return tuple(Orbit(sorted_word(c), young_subgroup(c)) for c in contents)


@lru_cache(maxsize=None)
def coface_images(m: int, surjective: bool):
    """The differential out of degree m as a word operator: rep -> (word,
    sign) terms.  On Q only the inner cofaces survive, and of their terms
    only those that send letter i to both i and i+1: every split but the
    first and last of ``coface``, which send every i to i or every i to i+1
    (a word onto [m] uses the letter i)."""
    if surjective:
        cofaces, kept = range(1, m + 1), slice(1, -1)
    else:
        cofaces, kept = range(m + 2), slice(None)
    return lambda rep: (
        (w2, -1 if i % 2 else 1) for i in cofaces for w2 in coface(i, rep, m)[kept]
    )


def _located(terms, locate) -> list:
    """[(target orbit index, transfer g, c)] of a representative's image
    ``terms``, (word, c) pairs: equal words are summed first, and a word
    whose sum vanishes is dropped."""
    summed = {}
    for w2, c in terms:
        summed[w2] = summed.get(w2, 0) + c
    return [(*locate(w2), c) for w2, c in summed.items() if c]


@lru_cache(maxsize=None)
def _young_located(n: int, src_m: int, tgt_m: int, surjective: bool, images) -> list:
    """The located terms of the word operator ``images`` from degree src_m
    to tgt_m over S_n, one entry per orbit of ``_young_orbits(n, src_m,
    surjective)``, None until a module with coinvariants at that orbit
    needs it.  They depend on no module, so every module over S_n reads
    them: each irreducible of the isotypic route, and each module
    ``verify`` runs over S_n.  The key holds the operator itself, so an
    operator is one object per process (``coface_images``,
    ``harrison.slot_images``)."""
    return [None] * len(_young_orbits(n, src_m, surjective))


def _subgroup_orbits(n: int, m: int, group: PermutationGroup, surjective: bool):
    """(lex-least representative, {word: transfer}) per orbit; the transfer
    g of a word w satisfies w = g.rep.

    The words come in lexicographic order and each orbit is closed when its
    first word is met, so that word is the orbit's least: the representative.
    """
    seen = set()
    out = []
    ident = Permutation(tuple(range(1, n + 1)))
    for rep in surjective_words(n, m) if surjective else words(n, m):
        if rep in seen:
            continue
        members = {rep: ident}
        frontier = [rep]
        while frontier:
            nxt = []
            for u in frontier:
                gu = members[u]
                for s in group.generators:
                    v = position_action(s, u)
                    if v not in members:
                        members[v] = s * gu
                        nxt.append(v)
            frontier = nxt
        seen.update(members)
        out.append((rep, members))
    return out


# -- coinvariant bases ------------------------------------------------------


def _classes(lead: dict, ncols: int):
    """(free, W) from an echelon basis r_p of a relation space R over
    columns 0..ncols-1, given as {leading column p: r_p} in ascending order.

    The columns F that lead no row are ``free``: class(e_f) is the unit
    vector of f in F, and since r_p is a relation, back-substitution from
    the last pivot gives class(e_p) = -(sum over t > p of r_p[t] class(e_t))
    / r_p[p].  W is the ncols x |F| matrix whose row i is class(e_i), over
    the lcm of the classes' denominators; each class is kept fraction-free,
    as num[i] / den[i], until then.
    """
    free = [j for j in range(ncols) if j not in lead]
    num = {f: {a: 1} for a, f in enumerate(free)}
    den = dict.fromkeys(free, 1)
    for p, row in reversed(lead.items()):
        later = [(t, v) for t, v in row.items() if t != p]
        d = lcm(*(den[t] for t, _ in later))
        acc = {}
        for t, v in later:
            v *= d // den[t]
            for a, x in num[t].items():
                acc[a] = acc.get(a, 0) + v * x
        d *= -row[p]
        g = gcd(d, *acc.values()) * (1 if d > 0 else -1)
        num[p] = {a: x // g for a, x in acc.items() if x}
        den[p] = d // g
    w_den = lcm(*den.values())
    w = {i: {a: x * (w_den // den[i]) for a, x in r.items()} for i, r in num.items() if r}
    return free, RationalMatrix(ncols, len(free), w, w_den)


class CoinvariantBasis:
    """The coinvariant space M_H = M / I_H M, with coordinates of classes.

    M_H is M modulo the span of v.h - v over h in H.  That span equals
    R = sum over the generators s of H of im(act(s) - 1), because
    v.(g s) - v = (v.g)(s - 1) + (v.g - v); so only the generators are
    read.  An echelon basis r_p of R, one row leading at each pivot column
    p, leaves the other columns F (``free``), and the unit vectors at F give
    a basis of M_H (``_classes``).  The class of a row vector x has
    coordinates x @ W, where W (``w_matrix``) is the rational dim x k matrix
    whose row i is class(e_i), k = |F|; ``class_block`` returns x @ W.

    The bases nest along the generators s_1 ... s_l of H.  With no
    generator W is the identity.  Otherwise ``parent`` is the basis of the
    prefix S = <s_1 ... s_(l-1)> (built here when not given), and M_H is
    M_S modulo the classes of the new relations, the rows of
    act(s_l) W_S - W_S over the parent's k_S coordinates.  One sweep of
    those rows (``echelon_basis``) and ``_classes`` give F' and W' over the
    k_S columns, and then F = F_S[F'] and W = W_S W'.  Only
    act(s_l) W = W is checked exactly: every relation of s_l must have class
    zero, and act(s_i) W = W_S W' = W for i < l follows from the parent's
    check.  Over S_N the generators of a Young subgroup are the s_i inside
    its blocks, in increasing order, so each prefix is a Young subgroup
    again, and the prefixes of one stabilizer are other stabilizers.

    The result does not depend on the nesting, or on which rows span R.
    Under a fixed column order every echelon basis of R leads at the same
    columns P, and e_p minus a combination of the e_f is in R for exactly
    one combination, so the classes, and with them F and W, depend on R
    alone.  A column free for R is free for R_S, since R_S lies in R; and a
    class of M_S involves only later free columns, so a free column f of S
    is free for R exactly when its coordinate is free for the new
    relations, in the parent's coordinate order.  W's den is lcm |d_p|
    over the pivot values d_p of R's reduced echelon basis of content-1
    integer rows, whose row p is d_p (e_p - class(e_p)).
    """

    def __init__(self, module, stabilizer: PermutationGroup, parent=None):
        dim = module.dim
        gens = stabilizer.generators
        if not gens:
            self.free, self.k = list(range(dim)), dim
            self.w_matrix = RationalMatrix.identity(dim)
            return
        if parent is None:
            parent = CoinvariantBasis(module, prefix_groups(stabilizer)[-2])
        w = parent.w_matrix
        # the classes of e_i.s and e_i in the parent's coordinates
        moved = module.act(gens[-1]) * w
        relations = (moved - w).rows.values()
        if not relations:
            self.free, self.k, self.w_matrix = parent.free, parent.k, w
            return
        lead = {min(row): row for row in echelon_basis(relations, parent.k)}
        free, w_new = _classes(lead, parent.k)
        self.free = [parent.free[a] for a in free]
        self.k = len(free)
        # a parent without relations has W_S = 1
        self.w_matrix = w_new if parent.k == dim else w * w_new
        # act(s) W = (act(s) W_S) W'
        if moved * w_new != self.w_matrix:
            raise SubspaceEscape("a relation has a nonzero coinvariant class")

    def class_block(self, x: RationalMatrix) -> RationalMatrix:
        """x @ W, x rows by dim: row i holds the coordinates of the class of
        x's row i.  When there are no relations W is the identity, and x
        comes back as it is."""
        if self.k == x.ncols:
            return x
        return x * self.w_matrix


@lru_cache(maxsize=None)
def prefix_groups(group: PermutationGroup) -> tuple:
    """The groups of the prefixes of ``group``'s generators, from the
    trivial one up to ``group`` itself; built once per group, as the
    stabilizers of the isotypic route are met once per irreducible."""
    gens = group.generators
    return tuple(PermutationGroup(group.degree, gens[:i]) for i in range(len(gens))) + (group,)


def basis_groups(stabilizers) -> set:
    """Every group an orbit builder builds a ``CoinvariantBasis`` for: each
    stabilizer and each prefix of its generators, down to the trivial one."""
    return {p for s in stabilizers for p in prefix_groups(s)}


class _OrbitDegree:
    """Basis bookkeeping of one degree of the orbit-mode complex.

    ``lookup`` maps each representative to its orbit index under the full
    symmetric group, and each word to (orbit index, transfer) otherwise.
    """

    def __init__(self, orbits, coinv):
        self.orbits = orbits
        self.coinv = coinv
        self.offsets = []
        off = 0
        for basis in coinv:
            self.offsets.append(off)
            off += basis.k
        self.dim = off
        self.lookup = {}
        for idx, orbit in enumerate(orbits):
            if orbit.transfers is None:
                self.lookup[orbit.rep] = idx
            else:
                self.lookup.update((w, (idx, g)) for w, g in orbit.transfers.items())


class OrbitComplexBuilder:
    """Degrees and word operators of M (x)_G (word complex), or with
    ``surjective`` of M (x)_G Q, the surjective-word quotient."""

    def __init__(self, module, group: PermutationGroup, surjective: bool = False):
        self.module = module
        self.group = group
        self.n = group.degree
        self.surjective = surjective
        self.symmetric = group.is_symmetric()
        # group -> CoinvariantBasis, for the stabilizers and their prefixes
        self._coinv_cache = {}
        self._orbits = {}
        self._degrees = {}

    def _coinv(self, stabilizer: PermutationGroup):
        # groups compare by their generators, so Young subgroups with equal
        # nonzero block sizes share one basis, as do subgroup stabilizers
        # with equal element sets (their greedy generators are equal).  A
        # basis refines its generator prefix's, which is built once too
        basis = self._coinv_cache.get(stabilizer)
        if basis is None:
            parent = self._coinv(prefix_groups(stabilizer)[-2]) if stabilizer.generators else None
            basis = CoinvariantBasis(self.module, stabilizer, parent)
            self._coinv_cache[stabilizer] = basis
        return basis

    def orbits(self, m: int) -> list:
        orbits = self._orbits.get(m)
        if orbits is None:
            orbits = orbit_decomposition(self.n, m, self.group, self.surjective)
            self._orbits[m] = orbits
        return orbits

    def degree(self, m: int) -> _OrbitDegree:
        deg = self._degrees.get(m)
        if deg is None:
            orbits = self.orbits(m)
            deg = _OrbitDegree(orbits, [self._coinv(o.stabilizer) for o in orbits])
            self._degrees[m] = deg
        return deg

    def locate(self, deg: _OrbitDegree, w):
        """(orbit index, transfer g) with w = g.rep."""
        if self.symmetric:
            rep, g = sort_transfer(w)
            return deg.lookup[rep], g
        return deg.lookup[w]

    def operator_matrix(self, src_m: int, tgt_m: int, images) -> RationalMatrix:
        """Matrix of a word operator that commutes with the position action.

        ``images(rep)`` yields (word, coefficient) terms of the operator's
        image of a degree-src_m orbit representative.  Equal words are summed
        first, so each surviving term g.rep' is rewritten through the
        transfer identity and projected into its target orbit once.  Over
        S_n every operator's terms are located once per process and orbit
        (``_young_located``), and over a subgroup at every call.  Each
        term's class block is added into one running sum of numerators,
        which is rescaled only when a block's den does not divide its den.
        """
        src = self.degree(src_m)
        tgt = self.degree(tgt_m)
        if self.symmetric:
            located = _young_located(self.n, src_m, tgt_m, self.surjective, images)
        else:
            located = [None] * len(src.orbits)
        dim = self.module.dim
        den = 1
        acc = {}
        for oi, orbit in enumerate(src.orbits):
            free = src.coinv[oi].free
            if not free:
                continue
            src_off = src.offsets[oi]
            terms = located[oi]
            if terms is None:
                terms = located[oi] = _located(images(orbit.rep), lambda w: self.locate(tgt, w))
            for ti, g, c in terms:
                # the source basis is the unit vectors at ``free``, so
                # basis . act(g) selects those rows of act(g)
                action = self.module.act(g)
                rows = action.rows
                x = RationalMatrix(
                    len(free),
                    dim,
                    {a: rows[f] for a, f in enumerate(free) if f in rows},
                    action.den,
                )
                block = tgt.coinv[ti].class_block(x)
                if den % block.den:
                    f = block.den // gcd(den, block.den)
                    den *= f
                    acc = {r: {t: f * v for t, v in row.items()} for r, row in acc.items()}
                c *= den // block.den
                tgt_off = tgt.offsets[ti]
                for a, row in block.rows.items():
                    out = acc.get(src_off + a)
                    if out is None:
                        out = acc[src_off + a] = {}
                    for b, v in row.items():
                        out[tgt_off + b] = out.get(tgt_off + b, 0) + c * v
        data = {}
        for r, row in acc.items():
            row = {t: v for t, v in row.items() if v}
            if row:
                data[r] = row
        return RationalMatrix(src.dim, tgt.dim, data, den)

    def differential_matrix(self, m: int) -> RationalMatrix:
        return self.operator_matrix(m, m + 1, coface_images(m, self.surjective))


def cubical_complex(
    module,
    group: PermutationGroup,
    m_max: int,
    mode: str = "orbit",
    cap: int = DEFAULT_CAP,
) -> CochainComplex:
    """The complex M tensored over G with the word complex.

    ``module`` may be defined over the full symmetric group or over G only;
    it must be able to act for every element of G.  ``mode`` is "orbit",
    "naive" (see the module docstring), "quotient", which returns a
    ``QuotientComplex``: the surjective-word quotient's Betti numbers with
    the full complex's dimensions, and the same Betti table, or "isotypic",
    which sums the quotient over the irreducibles into a
    ``QuotientComplex``, and needs only M's class function.  Every mode
    refuses a size count above ``cap`` (module docstring).
    """
    if mode == "naive":
        return _naive_complex(module, group, m_max, cap, complex_label(module, group))
    return operator_complex(module, group, m_max, mode, cap=cap)


def complex_label(module, group: PermutationGroup) -> str:
    return f"{getattr(module, 'name', 'M')}/{'S' if group.is_symmetric() else 'G'}{group.degree}"


def _naive_basis(module, group, m: int) -> list:
    """A row echelon basis of the image of the averaging projector P on
    degree m of M (x) word space, indexed (module basis, word).

    |G| P sends e_a (x) w to the sum over g of e_a.g (x) g^{-1}.w, and
    P(e_a (x) g.w) = P(e_a.g (x) w), so the images of e_a (x) w, for w one
    word per position orbit (its least index), span im P; one sweep
    reduces them to a basis.
    """
    n = group.degree
    size = m ** n
    moved = [(module.act(g), position_indices(g.inverse(), n, m)) for g in group.elements]
    least = map(min, zip(*(idx for _, idx in moved)))
    reps = [j for j, k in enumerate(least) if j == k]
    # the images times the lcm of the actions' dens: integer rows, which
    # span the same space
    den = lcm(*(action.den for action, _ in moved))
    span = {}
    for action, idx in moved:
        f = den // action.den
        for j in reps:
            w = idx[j]
            for a, arow in action.rows.items():
                vec = span.setdefault((a, j), {})
                for b, v in arow.items():
                    c = b * size + w
                    vec[c] = vec.get(c, 0) + f * v
    rows = ({c: v for c, v in vec.items() if v} for vec in span.values())
    return echelon_basis(rows, module.dim * size)


def _naive_complex(module, group, m_max, cap, label) -> CochainComplex:
    n = group.degree
    dim_m = module.dim
    check_cap(group.order * dim_m * (m_max + 1) ** n, cap, f"the size of naive mode for {label}")
    solvers = {
        m: RowSpanSolver(_naive_basis(module, group, m), dim_m * m ** n)
        for m in range(1, m_max + 2)
    }
    dims = {m: solver.k for m, solver in solvers.items()}
    diffs = {}
    for m in range(1, m_max + 1):
        images = apply_differential(solvers[m].basis, differential_columns(n, m), (m + 1) ** n)
        diffs[m] = solvers[m + 1].solve(images, f"{label}: the coinvariant space")
    return CochainComplex(label, n, m_max, dims, diffs)


# -- the surjective-word quotient ---------------------------------------------


class QuotientComplex:
    """The Betti numbers ``bettis`` of M (x)_G Q, {m: betti_m} over the
    degrees 1..min(n, m_max) (zero above n), with the full complex's
    dimensions ``dims`` in degrees 1..m_max+1.

    H(Q) = H(C) (module docstring), so ``betti_table`` reads each rank of
    the full differential off rank_d(m) = dims[m] - betti_m - rank_d(m-1),
    checking 0 <= rank_d(m) <= min(dims[m], dims[m+1]).  Quotient mode reads
    ``bettis`` off the built Q, and the isotypic route sums them over the
    irreducibles.
    """

    def __init__(self, label: str, n_slots: int, m_max: int, dims: dict, bettis: dict):
        self.label = label
        self.n_slots = n_slots
        self.m_max = m_max
        self.dims = dims
        self.bettis = bettis

    def betti_table(self) -> BettiTable:
        rows = []
        prev = 0
        for m in range(1, self.m_max + 1):
            betti = self.bettis.get(m, 0)
            r = self.dims[m] - betti - prev
            if not 0 <= r <= min(self.dims[m], self.dims[m + 1]):
                raise InvariantError(
                    f"{self.label}: the rank of d at degree {m} comes out as {r}, "
                    f"outside 0..min({self.dims[m]}, {self.dims[m + 1]})"
                )
            rows.append(BettiRow(m, self.dims[m], r, betti))
            prev = r
        return _checked_table(self.label, self.n_slots, rows)


def _one_length(t_cycles, g_cycles) -> int:
    """d for t of type d^k when d divides every cycle length of g, and 0
    otherwise.  Every term of a word operator here has one cycle length
    (module docstring), so a type with more is refused."""
    d = t_cycles[0]
    if t_cycles.count(d) != len(t_cycles):
        raise ValueError(f"the cycle type {t_cycles} has more than one cycle length")
    return 0 if any(ell % d for ell in g_cycles) else d


def fixed_words(t_cycles, g_cycles) -> int:
    """Words w with g.(t * w) = w, for t of type d^k and g of the given
    cycle lengths: (dk)^c when d divides each of the c cycle lengths of g,
    and 0 otherwise.

    Such a word satisfies w(g(p)) = t(w(p)), so on a cycle of g of length l
    it is fixed by its value at one point, which must be a fixed point of
    t^l: all dk points when d | l, and none otherwise.
    """
    d = _one_length(t_cycles, g_cycles)
    return (d * len(t_cycles)) ** len(g_cycles) if d else 0


def fixed_onto_words(t_cycles, g_cycles) -> int:
    """The words of ``fixed_words`` that use every slot: the sum over
    j = 0..k of (-1)^(k-j) binom(k, j) (dj)^c under the same condition, and
    0 otherwise.

    Such a word takes on each cycle of g the values of one cycle of t, so
    its image is a union of cycles of t; inclusion-exclusion over the
    subsets of t's cycles counts the words whose image is all of them, and
    each of the binom(k, j) subsets of j cycles leaves (dj)^c words.
    """
    d, k, c = _one_length(t_cycles, g_cycles), len(t_cycles), len(g_cycles)
    return sum((-1) ** (k - j) * comb(k, j) * (d * j) ** c for j in range(k + 1)) if d else 0


@lru_cache(maxsize=None)
def _count_table(group: PermutationGroup, trace, m: int, fixed) -> tuple:
    """({g: sum_t c_t fixed(t, g)} over the class representatives g of
    ``group``, q) for (c_t by cycle type, q) = trace(m): the part of a
    trace count that no module enters, built once per process and read by
    every module counted over ``group``.  The key holds no cycle type, so
    it stays small whatever m."""
    terms, q = trace(m)
    cycles = class_cycle_types(group)
    return {g: sum(c * fixed(t, cycles[g]) for t, c in terms.items()) for g in cycles}, q


def trace_counts(
    module, group: PermutationGroup, trace, degrees, fixed, label: str, what="the trace count"
) -> dict:
    """{m: dim im P_m} on M (x)_G k{X} over ``degrees``, for P_m given by
    ``trace`` (module docstring): ``fixed`` is ``fixed_words`` for all words
    and ``fixed_onto_words`` for the onto ones.  Each must be a
    non-negative integer (``character_count`` raises naming ``label``,
    ``what`` and the degree).  The fixed-word sums come from one shared
    ``_count_table``, so a count itself is p(n) products with chi_M."""
    out = {}
    for m in degrees:
        table, q = _count_table(group, trace, m, fixed)
        out[m] = character_count(module, group, table.__getitem__, q, f"{label}: {what} of degree {m}")
    return out


def check_trace_work(trace, m_max: int, cap: int, label: str) -> None:
    """Refuse the total cycle-type length of the trace counts through degree
    m_max + 1 above ``cap``, degree by degree before a degree is counted.

    The full dimensions reach degrees the quotient does not, and each count
    reads the cycle type of every term of P_m (module docstring)."""
    work = 0
    for m in range(1, m_max + 2):
        work += sum(map(len, trace(m)[0]))
        check_cap(work, cap, f"the cycle-type length of the trace counts of {label} "
                  f"through degree {m}")


def word_images(builder: OrbitComplexBuilder, top: int):
    """(dims, diffs) of the builder's degrees 1..top: the image of 1."""
    dims = {m: builder.degree(m).dim for m in range(1, top + 1)}
    diffs = {m: builder.differential_matrix(m) for m in range(1, top)}
    return dims, diffs


def identity_trace(m: int):
    """The operator 1 as ({cycle type of t: c_t}, q): one identity term."""
    return {(1,) * m: 1}, 1


def _counted(module, group: PermutationGroup, m_max: int, mode: str, trace, label: str, cap: int):
    """(want, builder, size) of the orbit or quotient mode: the dimensions
    it must build, the trace counts of degrees 1..m_max+1, or over onto
    words of degrees 1..min(n, m_max+1) on Q; its orbit builder; and its
    size, the sum of ``want`` plus dim M per basis group.  Above ``cap`` it
    refuses that sum first, before an orbit is enumerated, and then the
    size."""
    if mode == "quotient":
        want = trace_counts(module, group, trace, range(1, min(group.degree, m_max + 1) + 1),
                            fixed_onto_words, label, "the quotient's trace count")
    else:
        want = trace_counts(module, group, trace, range(1, m_max + 2), fixed_words, label)
    size, what = sum(want.values()), f"the size of {mode} mode for {label}"
    check_cap(size, cap, what)
    builder = OrbitComplexBuilder(module, group, mode == "quotient")
    size += module.dim * len(basis_groups({o.stabilizer for m in want for o in builder.orbits(m)}))
    check_cap(size, cap, what)
    return want, builder, size


def operator_complex(
    module,
    group: PermutationGroup,
    m_max: int,
    mode: str,
    label: str = "{}",
    images=word_images,
    trace=identity_trace,
    cap: int = DEFAULT_CAP,
):
    """im P inside M (x)_G (word complex), for a word operator P.

    ``label`` is the complex's label around ``complex_label(module,
    group)``: "{}" for the word complex.  ``images(builder, top)`` returns
    (dims, diffs) of im P on the builder's degrees 1..top, with diffs[m]
    from degree m to m + 1.  ``trace(m)`` returns ({cycle type of t: c_t},
    q), the coefficients of P_m = sum_t c_t slot(t) summed by cycle type,
    with P_m P_m = q P_m; each type must have one cycle length
    (``fixed_words``).  It is read for every degree through m_max + 1, so it
    should not enumerate P_m's terms, and ``images`` checks P_m P_m = q P_m
    on the degrees it builds where that is not evident.  (``trace``, m) keys
    the shared count tables (``_count_table``), so ``trace`` is a
    module-level function.

    "orbit" builds im P in degrees 1..m_max+1 of the full orbit complex and
    returns a ``CochainComplex``.  "quotient" builds it on the
    surjective-word quotient only and returns a ``QuotientComplex`` whose
    full dimensions are the trace counts of the module docstring.  Both
    refuse their size counts above ``cap`` before building anything
    (``_counted``); "quotient" then refuses the length of the cycle types
    its full dimensions read, degree by degree, before it reads them
    (module docstring).  Every count must be a non-negative integer, each
    built dimension must equal its count, and d^2 must vanish on Q.
    "isotypic" sums quotient mode over the irreducibles
    (``_isotypic_complex``) and returns a ``QuotientComplex`` too.
    """
    if mode not in ("orbit", "quotient", "isotypic"):
        raise ValueError(f"unknown mode: {mode}")
    if mode == "isotypic":
        return _isotypic_complex(module, group, m_max, label, images, trace, cap)
    name = label.format(complex_label(module, group))
    want, builder, _ = _counted(module, group, m_max, mode, trace, name, cap)
    top, dims = len(want), want
    if builder.surjective:
        check_trace_work(trace, m_max, cap, name)
        dims = trace_counts(module, group, trace, range(1, m_max + 2), fixed_words, name)
    built, diffs = images(builder, top)
    for m, dim in built.items():
        if dim != want[m]:
            raise InvariantError(
                f"{name}: the {'quotient' if builder.surjective else 'complex'} has dimension "
                f"{dim} in degree {m}, its trace count is {want[m]}"
            )
    cx = CochainComplex(name, group.degree, top - 1, built, diffs)
    if not builder.surjective:
        return cx
    if not cx.check_d_squared():
        raise InvariantError(f"{name}: d^2 != 0 on the surjective-word quotient")
    bettis = {m: cx.betti_number(m) for m in range(1, min(top, m_max) + 1)}
    return QuotientComplex(name, group.degree, m_max, dims, bettis)


# -- the isotypic route ---------------------------------------------------------


def _isotypic_complex(module, group: PermutationGroup, m_max: int, label, images, trace, cap):
    """im P on M (x)_G (word complex) from a_lambda times im P on
    V_lambda (x)_(S_N) (word complex), over the irreducibles V_lambda with
    a_lambda > 0 (module docstring, "The isotypic route"); the arguments
    are ``operator_complex``'s.

    ``module`` needs a class function (``modules.class_function``) and no
    matrices.  Before any V_lambda is built, the route refuses above
    ``cap``, in turn: p(N)^2, the character table it may read; its
    stabilizer term over the stabilizers of Q, the sum of dim V_lambda
    times their number; its size, the sum of the V_lambda's quotient-mode
    sizes (``_counted``, which quotient mode refuses on); and the cycle-type
    length of M's trace counts.  Each V_lambda then runs quotient mode with
    the same (images, trace), and the summed dimensions must equal M's
    trace counts through degree m_max + 1.  Only the Betti numbers are
    summed: ``QuotientComplex`` derives the ranks.
    """
    name = label.format(complex_label(module, group))
    n = group.degree
    check_cap(partition_count(n) ** 2, cap,
              f"the size of the character table of S{n} that isotypic mode reads for {name}")
    mult = multiplicities(module, group)
    irreducibles = [specht_character(shape) for shape in mult]
    what = f"the size of isotypic mode for {name}"
    # Q's stabilizers are the Young subgroups of the compositions of n into
    # at most min(n, m_max + 1) parts, and every V_lambda builds a basis for each
    stabilizers = sum(comb(n - 1, k) for k in range(min(n, m_max + 1)))
    check_cap(sum(chi.dim for chi in irreducibles) * stabilizers, cap, what)
    sym = symmetric_group(n)
    check_cap(sum(
        _counted(chi, sym, m_max, "quotient", trace, label.format(complex_label(chi, sym)), cap)[2]
        for chi in irreducibles
    ), cap, what)
    check_trace_work(trace, m_max, cap, name)
    dims = trace_counts(module, group, trace, range(1, m_max + 2), fixed_words, name)
    summed = dict.fromkeys(dims, 0)
    bettis = {}
    for shape, a in mult.items():
        part = operator_complex(specht(shape), sym, m_max, "quotient", label, images, trace, cap)
        for m in dims:
            summed[m] += a * part.dims[m]
        for m, betti in part.bettis.items():
            bettis[m] = bettis.get(m, 0) + a * betti
    if summed != dims:
        m = min(m for m in dims if summed[m] != dims[m])
        raise InvariantError(
            f"{name}: its irreducibles sum to dimension {summed[m]} in degree {m}, "
            f"its trace count is {dims[m]}"
        )
    return QuotientComplex(name, n, m_max, dims, bettis)
