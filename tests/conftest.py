"""Hypothesis runs derandomized, with no deadline and no example database:
the suite stays deterministic and does not time out on a slow or shared
host.  Hypothesis also caches constants it scrapes from the source under
its home directory, database or not, so that home is a temporary directory
removed at exit and no ``.hypothesis/`` appears in the checkout."""

import tempfile
from fractions import Fraction
from math import lcm

from hypothesis import configuration, settings
from hypothesis import strategies as st

from cubix.linalg import RationalMatrix, _clear, _Eliminator, _int_rows, image_basis
from cubix.modules import BUILTIN_KINDS, SubgroupModule, builtin, random_basis_change
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
    basis = image_basis(proj.transpose())
    return proj, basis


def plain_reduced_echelon(int_rows, ncols):
    """``linalg.reduced_echelon`` with an unindexed back pass: every earlier
    pivot row is tested for the pivot column.  Its oracle."""
    pivots = _Eliminator(int_rows, ncols).sweep()
    red = [row for _, row in pivots]
    for j in range(len(red) - 1, 0, -1):
        c = pivots[j][0]
        for i in range(j):
            if c in red[i]:
                red[i] = _clear(red[i], red[j], c)
    return [(c, row) for (c, _), row in zip(pivots, red)]


def stacked_coinvariant_basis(module, stabilizer):
    """(free, scale, W) of M_H from one plain reduced echelon form of the
    stacked rows of every act(s) - 1: the oracle of the per-generator
    blocks of ``cubix.cubical.CoinvariantBasis``."""
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
    return free, scale, RationalMatrix(dim, len(free), {i: r for i, r in w.items() if r})


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
