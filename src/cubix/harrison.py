"""Eulerian idempotents and the Harrison subcomplex.

Slots admit a second action, by relabeling letters: t acts on a word by
(t * w)(p) = t(w(p)).  It commutes with the position action, so it descends
to every coinvariant complex.  The first Eulerian idempotent in degree m is

    E_m = sum over s in S_m of  c_s . (slot action of s^{-1}),
    c_s = sign(s) (-1)^{des s} / (m . binom(m-1, des s)),

where des counts descents.  E_m is idempotent and commutes with the
differential; both facts are enforced here rather than assumed, since the
whole construction silently produces garbage when the normalization of the
coefficients is off.

This module supplies E_m as a word-level map only: its coefficients and the
slot action.  On a coinvariant complex E_m is assembled, like the
differential, by ``OrbitComplexBuilder.operator_matrix``, which the slot
action may use because it commutes with the position action.

The Harrison subcomplex is the image of E, with the differential restricted
to it.  Restriction solves for coordinates in the image basis exactly and
fails hard if the image of E is not preserved.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, lcm

from .cubical import (
    BettiTable,
    CochainComplex,
    OrbitComplexBuilder,
    words,
)
from .linalg import InvariantError, RationalMatrix, RowSpanSolver, image_basis
from .perm import Permutation, PermutationGroup


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
        coeff = Fraction(s.sign() * (-1) ** des * scale, m * comb(m - 1, des))
        if coeff.denominator != 1:
            raise InvariantError(f"scale {scale} does not clear degree {m}")
        out.append((s, int(coeff)))
    return tuple(out)


def slot_action(t: Permutation, w):
    """(t * w)(p) = t(w(p)); relabels letters, keeps positions."""
    imgs = t.images
    return tuple(imgs[x - 1] for x in w)


def word_slot_matrix(t: Permutation, n: int, m: int) -> RationalMatrix:
    ws = words(n, m)
    index = {w: i for i, w in enumerate(ws)}
    entries = ((index[slot_action(t, w)], index[w], 1) for w in ws)
    return RationalMatrix.from_entries(len(ws), len(ws), entries)


def word_eulerian_matrix(n: int, m: int):
    """(scaled matrix, scale) of E_m on the degree-m word space."""
    ws = words(n, m)
    index = {w: i for i, w in enumerate(ws)}

    def emit():
        for s, coeff in eulerian_terms(m):
            inv = s.inverse()
            for w in ws:
                yield (index[slot_action(inv, w)], index[w], coeff)

    size = len(ws)
    return RationalMatrix.from_entries(size, size, emit()), eulerian_scale(m)


def orbit_eulerian_matrix(builder: OrbitComplexBuilder, m: int):
    """(scaled matrix, scale) of E_m on a coinvariant complex degree."""
    terms = [(s.inverse(), coeff) for s, coeff in eulerian_terms(m)]
    mat = builder.operator_matrix(
        m, m, lambda rep: ((slot_action(t, rep), c) for t, c in terms)
    )
    return mat, eulerian_scale(m)


def check_idempotent(scaled: RationalMatrix, scale: int) -> bool:
    """E^2 = E, phrased for the scaled integer matrix as (sE)^2 = s(sE)."""
    return scaled * scaled == scaled.scale(scale)


class HarrisonRestrictionError(InvariantError):
    pass


def harrison_complex(module, group: PermutationGroup, m_max: int) -> CochainComplex:
    """The image of the Eulerian idempotents inside the coinvariant complex.

    Checks d E = E d in every degree before restricting; a failure means the
    idempotent convention and the differential disagree, so it raises rather
    than returning a complex whose cohomology would be meaningless.
    """
    builder = OrbitComplexBuilder(module, group)
    base_diffs = {m: builder.differential_matrix(m) for m in range(1, m_max + 1)}
    scaled = {}
    for m in range(1, m_max + 2):
        scaled[m] = orbit_eulerian_matrix(builder, m)
    for m in range(1, m_max + 1):
        e_src, s_src = scaled[m]
        e_tgt, s_tgt = scaled[m + 1]
        d = base_diffs[m]
        if (d * e_src).scale(s_tgt) != (e_tgt * d).scale(s_src):
            raise HarrisonRestrictionError(
                f"differential does not commute with the idempotent at degree {m}"
            )
    solvers = {
        m: RowSpanSolver(image_basis(scaled[m][0]), builder.degree(m).dim)
        for m in range(1, m_max + 2)
    }
    dims = {m: solver.k for m, solver in solvers.items()}
    labels = {m: [f"E{m}#{a}" for a in range(dims[m])] for m in dims}
    diffs = {}
    for m in range(1, m_max + 1):
        images = solvers[m].basis * base_diffs[m].transpose()
        coords = solvers[m + 1].solve(images, f"the Harrison space at degree {m + 1}")
        diffs[m] = coords.transpose()
    name = getattr(module, "name", "M")
    label = f"harrison({name}/{'S' if group.is_symmetric() else 'G'}{group.degree})"
    return CochainComplex(label, group.degree, m_max, dims, diffs, labels)


def harrison_betti(module, group: PermutationGroup, m_max: int) -> BettiTable:
    return harrison_complex(module, group, m_max).betti_table()
