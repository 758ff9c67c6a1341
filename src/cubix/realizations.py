"""Direct models of the word, free-Lie, and necklace complexes.

These rebuild three families of complexes from their concrete descriptions,
with no reference to modules, orbits, or coinvariants:

* ass: all words of length n over [m], with the substitution differential
  f(x_1..x_m) -> f(x_2..x_{m+1}) - f(x_1+x_2, x_3..) + ... +- f(.., x_m+x_{m+1})
  -+ f(x_1..x_m), which is exactly the word-complex differential, so this
  family is ``cubical.full_complex``;
* lie: the degree-n part of the free Lie algebra on m generators, embedded
  in the word space by expanding the standard bracketings of Lyndon words.
  Substitutions are Lie algebra maps, so the subspace must be preserved;
  the restriction solves exactly and raises if a vector ever escapes;
* tr: rotation classes of words, with lexicographically least rotations as
  representatives.  Substitutions act on letter values and rotations act on
  positions, so the differential descends to the quotient.

The point of this module is to disagree with the generic engine if either
side is wrong, so none of the engine's orbit or projector machinery is used
here beyond the shared coface definition.
"""

from functools import lru_cache
from math import gcd

from .cubical import (
    CochainComplex,
    differential,
    differential_columns,
    full_complex,
    words,
)
from .freelie import lie_projector_basis, witt_dim
from .linalg import RationalMatrix, RowSpanSolver
from .linalg import SubspaceEscape  # re-exported: the Lie restriction raises it

FAMILY_MODULES = {"ass": "regular", "lie": "lie", "tr": "tr_cyclic"}


def necklace_count(m: int, n: int) -> int:
    def phi(d):
        return sum(1 for r in range(1, d + 1) if gcd(r, d) == 1)

    total = sum(phi(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def rotation_class(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def necklace_representatives(m: int, n: int) -> list:
    reps = sorted({rotation_class(w) for w in words(n, m)})
    assert len(reps) == necklace_count(m, n)
    return reps


@lru_cache(maxsize=None)
def _degree_basis(family: str, n: int, m: int):
    """(descriptors, expansion dicts over word indices) for one degree."""
    index = {w: i for i, w in enumerate(words(n, m))}
    if family == "lie":
        from .freelie import lyndon_words

        descr = tuple(lyndon_words(m, n))
        vecs = tuple(
            {index[w]: c for w, c in e.items()} for e in lie_projector_basis(m, n)
        )
        return descr, vecs
    if family == "tr":
        descr = tuple(necklace_representatives(m, n))
        return descr, tuple({index[w]: 1} for w in descr)
    raise ValueError(f"unknown family: {family}")


def substitution_differential(family: str, n: int, m: int) -> RationalMatrix:
    """Degree m -> m+1 map of the direct complex, target-by-source."""
    src_descr, src_vecs = _degree_basis(family, n, m)
    tgt_descr, tgt_vecs = _degree_basis(family, n, m + 1)
    if family == "tr":
        cols = differential_columns(n, m)
        tgt_words = words(n, m + 1)
        rep_of = {i: rotation_class(w) for i, w in enumerate(tgt_words)}
        rep_index = {w: i for i, w in enumerate(tgt_descr)}
        src_index = {w: i for i, w in enumerate(words(n, m))}
        entries = (
            (rep_index[rep_of[i]], j, c)
            for j, w in enumerate(src_descr)
            for i, c in cols[src_index[w]].items()
        )
        return RationalMatrix.from_entries(len(tgt_descr), len(src_descr), entries)
    # lie: push the source Lyndon expansions through the word differential,
    # then solve for their coordinates in the target Lyndon basis
    src = RationalMatrix.from_row_dicts(src_vecs, len(src_vecs), m ** n)
    tgt = RowSpanSolver(list(tgt_vecs), (m + 1) ** n)
    images = src * differential(n, m).transpose()
    return tgt.solve(images, f"the Lie subspace at n={n}, m={m + 1}").transpose()


def direct_complex(family: str, n: int, m_max: int) -> CochainComplex:
    if family not in FAMILY_MODULES:
        raise ValueError(f"unknown family: {family}")
    if family == "ass":
        return full_complex(n, m_max)
    dims = {}
    for m in range(1, m_max + 2):
        dims[m] = len(_degree_basis(family, n, m)[0])
        if family == "lie":
            assert dims[m] == witt_dim(m, n)
    diffs = {m: substitution_differential(family, n, m) for m in range(1, m_max + 1)}
    return CochainComplex(f"direct-{family}(n={n})", n, m_max, dims, diffs)


class RealizationReport:
    def __init__(
        self,
        family: str,
        n: int,
        direct_dims: tuple,
        engine_dims: tuple,
        direct_betti: tuple,
        engine_betti: tuple,
    ):
        self.family = family
        self.n = n
        self.direct_dims = direct_dims
        self.engine_dims = engine_dims
        self.direct_betti = direct_betti
        self.engine_betti = engine_betti

    @property
    def ok(self) -> bool:
        return (
            self.direct_dims == self.engine_dims
            and self.direct_betti == self.engine_betti
        )


def compare_with_engine(family: str, n: int, m_max: int) -> RealizationReport:
    """Dimension-by-dimension and Betti-by-Betti face-off with the engine.

    The engine side is the shipped route, the surjective-word quotient; its
    dimensions are the trace counts of the full complex.
    """
    from .cubical import cubical_complex
    from .modules import builtin
    from .perm import symmetric_group

    direct = direct_complex(family, n, m_max)
    module = builtin(FAMILY_MODULES[family], n)
    engine = cubical_complex(module, symmetric_group(n), m_max, mode="quotient")
    span = range(1, m_max + 2)
    return RealizationReport(
        family,
        n,
        tuple(direct.dims[m] for m in span),
        tuple(engine.dims[m] for m in span),
        direct.betti_table().bettis(),
        engine.betti_table().bettis(),
    )
