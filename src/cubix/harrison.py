"""Eulerian idempotents, the Dynkin element and the Harrison subcomplex.

Slots admit a second action, by relabeling letters: t acts on a word by
(t * w)(p) = t(w(p)).  It commutes with the position action, so it descends
to every coinvariant complex, and t -> slot(t) is a homomorphism from the
group algebra Q[S_m].  The first Eulerian idempotent in degree m is

    E_m = sum over s in S_m of  c_s . slot(s^{-1}),
    c_s = sign(s) (-1)^{des s} / (m . binom(m-1, des s)),

where des counts descents.  The Harrison subcomplex is the image of E.
E_m has m! terms, so it is not built on the hot path.  Every Lie
idempotent has the same image (Reutenauer, Free Lie Algebras, ch. 3;
Loday, Cyclic Homology, 4.5), and D_m / m is one, where the sign-twisted
Dynkin element D_m has 2^(m-1) terms, every coefficient +-1:

    D_m = sum over subsets S of {2..m} of  (-1)^|S| sign(p_S) . slot(p_S^{-1}),

where p_S in one-line notation is S decreasing, then 1, then the rest of
{2..m} increasing.  In Q[S_m], with (p*q)(i) = p(q(i)),

    E D = D,    D E = m E,    D D = m D,

so im D = im E in every degree of every orbit complex; the tests check
these identities for m <= 6.  Both twists matter: dropping the sign, or
the inverse, gives a different subspace.

On a coinvariant complex both operators are assembled, like the
differential, by ``OrbitComplexBuilder.operator_matrix``, which the slot
action may use because it commutes with the position action.  Each term
tuple is one operator per process (``slot_images``), so over S_n the terms
of D_m, like the differential's, are located once and read by every
module.
``harrison_complex`` builds only D.  Its basis of im D in each degree is
an echelon form: ``image_basis`` picks k of D's rows, images that span
im D, in one sweep, and ``echelon_basis`` sweeps those k rows once more,
into rows that lead at distinct coordinates, which ``RowSpanSolver``
reads.  (Sweeping D's images straight to echelon rows, in one pass,
measured slower than the two sweeps on ``harrison --n 4 --mode orbit``.)
Two exact checks guard it, and a failure of either raises an
``InvariantError``.  D^2 = m D is checked in every degree as D b = m b on
the basis of im D: the same statement, on dim im D rows instead of dim.
The membership check that ``RowSpanSolver.solve`` runs on every
restriction is exactly "d preserves im D".  E, its idempotency and
d E = E d stay as oracles for the tests and the ``verify`` suites.  E
carries its own den like every matrix: its integer coefficients over
``eulerian_scale(m)``, reduced, so E E = E and d E = E d are plain matrix
comparisons and no function hands out a scale beside a matrix.

Harrison through the surjective-word quotient
---------------------------------------------
Let C be the coinvariant complex, S its subcomplex of words that leave a
slot empty and Q = C/S (``cubical.py``).  A slot permutation relabels
letters, so it maps a word onto [m] to a word onto [m] and a word missing
a slot to a word missing one: D and E preserve S and descend to Q.

Claim: H(im D on C) = H(im D on Q).  E is an idempotent that commutes
with d (D itself does not), and it preserves S, so C = EC + (1 - E)C is a
direct sum of complexes, and so are S and Q, with EQ = EC/ES.  S is
acyclic (``cubical.py``) and ES is a direct summand of it, so ES is
acyclic and EC -> EQ is a quasi-isomorphism.  E D = D and D E = m E hold
in Q[S_m], so im D = im E in every degree of C and of Q.  im D on Q
vanishes above degree n like Q, and its Betti numbers are the Harrison
Betti numbers.

The full dimensions need no matrix: D D = m D makes D/m an idempotent, so
dim im D_m = tr(D_m)/m, counted as in ``cubical.py`` ("Dimensions come from
traces") from D_m's class sums, its coefficients summed by the cycle type
of t.  They are in closed form.  For an idempotent e of Q[S_m], the class
sum of e over a class C is |C| chi(C) / m!, where chi is the character of
Q[S_m] e.  For e = D_m / m that module is Lie_m twisted by the sign, whose
character is Klyachko's mu(d) (k-1)! d^(k-1) on the type d^k, dk = m, and 0
elsewhere (``modules.lie_value``).  With |C| = m! / (d^k k!) the class sums
of D_m are mu(d) (-1)^(m - m/d) on d^(m/d), for d | m, and 0 on every other
type (``dynkin_trace``).  Tier-1 pins them equal to the 2^(m-1) enumerated
terms for m <= 12, and D_m D_m = m D_m in Q[S_m] for m <= 9.

``harrison_complex`` is ``cubical.operator_complex`` with im D as its image
(``_dynkin_images``) and D_m as its trace (``dynkin_trace``).  After the
size counts, the image refuses above the cap the 2^(m-1) terms of D_m
times the orbits of degree m, summed over the degrees it builds.  In the
quotient mode it builds im D only on Q, with the same D b = m b and
membership checks in every built degree, and the route adds three exact
checks, each an ``InvariantError``: every trace count is a non-negative
integer, Q's built dimension equals its own trace count over onto words,
and d^2 = 0 on im D over Q.  The trace counts of the degrees it never
builds are dimensions because D_m D_m = m D_m in Q[S_m]; that identity
depends on m alone, so the tests pin it (above) and no run checks it again.
The full complex's ranks then follow from Q's Betti numbers as in
``cubical.QuotientComplex``.  The orbit mode stays the oracle.

Harrison through the irreducibles
---------------------------------
D_m relabels letters and never touches the module factor, so on a direct
sum M = M' + M'' its matrix is block diagonal: im D_m on M (x)_G C is
im D_m on M' (x)_G C plus im D_m on M'' (x)_G C, and the differential,
which also acts on words alone, respects the sum.  Frobenius reciprocity
identifies M (x)_G C with (Ind M) (x)_{S_N} C, compatibly with every slot
operator, so im D_m on M is the sum of a_lambda copies of im D_m on each
irreducible V_lambda, a_lambda the multiplicity of V_lambda in Ind M.  The
isotypic mode of ``cubical.operator_complex`` therefore runs this quotient
route, with the same image and trace, on each V_lambda (dimension at most
sqrt(N!)) and sums the Betti numbers a_lambda times; the summed dimensions
must equal M's own Dynkin trace counts.  A builtin module enters through
its closed character alone, so ``harrison --n 8`` builds no
``regular(8)``.  The quotient route on M stays the oracle.
"""

from functools import lru_cache, partial
from itertools import combinations, permutations
from math import comb, lcm

from .cubical import (
    DEFAULT_CAP,
    OrbitComplexBuilder,
    check_cap,
    complex_label,
    operator_complex,
    position_indices,
)
from .linalg import InvariantError, RationalMatrix, RowSpanSolver, echelon_basis, image_basis
from .freelie import mobius
from .perm import Permutation, PermutationGroup, identity_permutation


@lru_cache(maxsize=None)
def eulerian_scale(m: int) -> int:
    """Least common denominator of the degree-m Eulerian coefficients."""
    return m * lcm(*(comb(m - 1, k) for k in range(m)))


@lru_cache(maxsize=None)
def eulerian_terms(m: int):
    """(s, integer coefficient) pairs with the common scale factored out.

    The true idempotent is (1/eulerian_scale(m)) . sum of coeff . slot(s^{-1}).
    """
    scale = eulerian_scale(m)
    out = []
    for images in permutations(range(1, m + 1)):
        s = Permutation(images)
        des = s.descents()
        out.append((s, s.sign() * (-1) ** des * (scale // (m * comb(m - 1, des)))))
    return tuple(out)


def slot_action(t: Permutation, w):
    """(t * w)(p) = t(w(p)); relabels letters, keeps positions."""
    imgs = t.images
    return tuple(imgs[x - 1] for x in w)


def word_eulerian_matrix(n: int, m: int) -> RationalMatrix:
    """E_m on the degree-m word space: the integer coefficients of
    ``eulerian_terms`` over the den ``eulerian_scale(m)``.

    The term of s sends word j of ``words(n, m)`` to s^{-1} * w_j, whose
    index ``position_indices`` gives with g the identity and t = s^{-1}.
    """
    ident = identity_permutation(n)
    rows = [{} for _ in range(m ** n)]
    for s, coeff in eulerian_terms(m):
        for row, i in zip(rows, position_indices(ident, n, m, s.inverse())):
            row[i] = row.get(i, 0) + coeff
    nonzero = ({i: c for i, c in row.items() if c} for row in rows)
    data = {j: row for j, row in enumerate(nonzero) if row}
    return RationalMatrix(m ** n, m ** n, data, eulerian_scale(m))


@lru_cache(maxsize=None)
def slot_images(terms: tuple):
    """The word operator sum c . slot(t), over (t, c) in ``terms``: rep ->
    (word, c) terms.  One object per term tuple, so over S_n its located
    terms are shared by every module (``cubical._young_located``)."""
    return lambda rep: ((slot_action(t, rep), c) for t, c in terms)


def orbit_slot_operator(builder: OrbitComplexBuilder, m: int, terms) -> RationalMatrix:
    """Matrix of sum c . slot(t), over (t, c) in ``terms``, on a coinvariant degree."""
    return builder.operator_matrix(m, m, slot_images(tuple(terms)))


def orbit_eulerian_matrix(builder: OrbitComplexBuilder, m: int) -> RationalMatrix:
    """E_m on a coinvariant complex degree."""
    terms = [(s.inverse(), coeff) for s, coeff in eulerian_terms(m)]
    scaled = orbit_slot_operator(builder, m, terms)
    return RationalMatrix(scaled.nrows, scaled.ncols, scaled.rows, scaled.den * eulerian_scale(m))


@lru_cache(maxsize=None)
def dynkin_terms(m: int):
    """(t, +-1) pairs with D_m = sum of coeff . slot(t); see the module docstring."""
    rest = range(2, m + 1)
    out = []
    for k in range(m):
        for chosen in combinations(rest, k):
            tail = tuple(x for x in rest if x not in chosen)
            p = Permutation(tuple(sorted(chosen, reverse=True)) + (1,) + tail)
            out.append((p.inverse(), (-1) ** k * p.sign()))
    return tuple(out)


def check_idempotent(e: RationalMatrix) -> bool:
    """E^2 = E."""
    return e * e == e


class HarrisonRestrictionError(InvariantError):
    pass


# the label of a Harrison complex, around ``cubical.complex_label``
LABEL = "harrison({})"


def dynkin_trace(m: int):
    """D_m summed by the cycle type of t, and its square factor m; see
    ``cubical.operator_complex``.  In closed form (module docstring): the
    class sums are mu(d) (-1)^(m - m/d) on d^(m/d), for d | m."""
    return {(d,) * (m // d): mobius(d) * (-1) ** (m - m // d)
            for d in range(1, m + 1) if not m % d and mobius(d)}, m


def _dynkin_images(builder: OrbitComplexBuilder, top: int, cap: int = DEFAULT_CAP):
    """(dims, diffs) of im D on the builder's degrees 1..top.

    D_m's 2^(m-1) terms are each applied to every orbit of degree m; their
    sum over m <= top is refused above ``cap`` before the first term is
    built.  Checks D^2 = m D in every degree and, on every restriction,
    that d maps im D into im D; a failure means the operator or the
    differential is wrong, so it raises rather than returning a complex
    whose cohomology would be meaningless.
    """
    applied = sum(2 ** (m - 1) * len(builder.orbits(m)) for m in range(1, top + 1))
    label = LABEL.format(complex_label(builder.module, builder.group))
    check_cap(applied, cap, f"the Dynkin terms applied for {label}")
    solvers = {}
    for m in range(1, top + 1):
        dyn = orbit_slot_operator(builder, m, dynkin_terms(m))
        solver = RowSpanSolver(echelon_basis(image_basis(dyn), dyn.ncols), dyn.ncols)
        # D^2 = m D exactly when D is m times the identity on a basis of im D
        if solver.basis * dyn != solver.basis.scale(m):
            raise HarrisonRestrictionError(f"D^2 != {m} D at degree {m}")
        solvers[m] = solver
    dims = {m: solver.k for m, solver in solvers.items()}
    diffs = {}
    for m in range(1, top):
        images = solvers[m].basis * builder.differential_matrix(m)
        diffs[m] = solvers[m + 1].solve(images, f"the Harrison space at degree {m + 1}")
    return dims, diffs


def harrison_complex(
    module, group: PermutationGroup, m_max: int, mode: str = "orbit", cap: int = DEFAULT_CAP
):
    """The image of the Dynkin elements inside the coinvariant complex.

    ``mode`` "orbit" builds im D in every degree of the full orbit complex
    and returns a ``CochainComplex``; "quotient" builds it on the
    surjective-word quotient only and returns a ``QuotientComplex`` with
    the full complex's dimensions from the trace of D (module docstring);
    "isotypic" sums the quotient mode of each irreducible V_lambda of S_N,
    a_lambda times, into a ``QuotientComplex`` (module docstring).  All
    give the same Betti table, and all refuse, above ``cap``, the size
    counts of ``cubical.operator_complex`` and then the Dynkin terms
    ``_dynkin_images`` would apply.
    """
    images = partial(_dynkin_images, cap=cap)
    return operator_complex(module, group, m_max, mode, LABEL, images, dynkin_trace, cap)
