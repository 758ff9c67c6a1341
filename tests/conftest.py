"""Hypothesis runs derandomized, with no deadline and no example database:
the suite stays deterministic and does not time out on a slow or shared
host.  Hypothesis also caches constants it scrapes from the source under
its home directory, database or not, so that home is a temporary directory
removed at exit and no ``.hypothesis/`` appears in the checkout."""

import tempfile
from fractions import Fraction

from hypothesis import configuration, settings

from cubix.linalg import RationalMatrix, image_basis

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
