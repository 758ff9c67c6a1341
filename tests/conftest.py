"""Hypothesis runs derandomized, with no deadline and no example database:
the suite stays deterministic and does not time out on a slow or shared
host.  Hypothesis also caches constants it scrapes from the source under
its home directory, database or not, so that home is a temporary directory
removed at exit and no ``.hypothesis/`` appears in the checkout."""

import tempfile
from fractions import Fraction

from hypothesis import configuration, settings
from hypothesis import strategies as st

from cubix.linalg import RationalMatrix, image_basis
from cubix.modules import BUILTIN_KINDS, builtin, random_basis_change
from cubix.perm import Permutation, PermutationGroup, symmetric_group

settings.register_profile("cubix", derandomize=True, deadline=None, database=None)
settings.load_profile("cubix")

_home = tempfile.TemporaryDirectory(prefix="cubix-hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)


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
