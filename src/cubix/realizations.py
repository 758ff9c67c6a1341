"""Direct models of the word, free-Lie, and necklace complexes.

These rebuild three families of complexes from their concrete descriptions,
with no reference to modules, orbits, or coinvariants:

* ass: all words of length n over [m], with the substitution differential
  f(x_1..x_m) -> f(x_2..x_{m+1}) - f(x_1+x_2, x_3..) + ... +- f(.., x_m+x_{m+1})
  -+ f(x_1..x_m), which is exactly the word-complex differential, so this
  family is ``cubical.full_complex``;
* lie: the degree-n part of the free Lie algebra on m generators, embedded
  in the word space by expanding the standard bracketings of Lyndon words.
  Substitutions are Lie algebra maps, so the subspace must be preserved.
  The images of the expansions come straight from the differential's
  rows, and each Lyndon word leads its expansion, so the restriction
  reads coordinates by stripping least words (``linalg.leading_coords``),
  exactly, and raises if a vector ever escapes;
* tr: rotation classes of words, with lexicographically least rotations as
  representatives.  Substitutions act on letter values and rotations act on
  positions, so the differential descends to the quotient.  Lex order is
  the numeric order of word indices, so a class is read off the least
  rotated index (``_necklaces``).

The point of this module is to disagree with the generic engine if either
side is wrong, so none of the engine's orbit or projector machinery is used
here beyond the word differential, which implements the shared coface
rule.  ``suites.chk_realization`` builds both sides and compares them.

``direct_complex`` computes each degree's basis once per call and keeps
none of them: the process-wide caches here hold only the necklace indices
and, in ``freelie.py``, the Lyndon expansions.
"""

from functools import lru_cache

from .cubical import (
    CochainComplex,
    apply_differential,
    differential_columns,
    full_complex,
)
from .freelie import lie_projector_basis, totient
from .linalg import InvariantError, RationalMatrix, leading_coords


def necklace_count(m: int, n: int) -> int:
    total = sum(totient(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise InvariantError(f"necklace count m={m} n={n}: {total} is not divisible by {n}")
    return total // n


@lru_cache(maxsize=None)
def _necklaces(m: int, n: int):
    """(the index of the least rotation of each word of ``words(n, m)``,
    the representatives' indices in ascending order), as tuples.  Rotating
    word x by k letters gives index (x mod m^(n-k)) m^k + x div m^(n-k)."""
    places = [(m ** (n - k), m ** k) for k in range(n)]
    least = tuple(min(x % p * q + x // p for p, q in places) for x in range(m ** n))
    reps = tuple(x for x, y in enumerate(least) if x == y)
    expected = necklace_count(m, n)
    if len(reps) != expected:
        raise InvariantError(f"necklaces m={m} n={n}: {len(reps)} classes, expected {expected}")
    return least, reps


def _word(x: int, n: int, m: int) -> tuple:
    """Word number x of ``words(n, m)``."""
    return tuple(x // m ** p % m + 1 for p in range(n - 1, -1, -1))


def _index(w: tuple, m: int) -> int:
    """The number of word w in ``words(len(w), m)``."""
    x = 0
    for letter in w:
        x = x * m + letter - 1
    return x


def necklace_representatives(m: int, n: int) -> list:
    return [_word(x, n, m) for x in _necklaces(m, n)[1]]


def _degree_basis(family: str, n: int, m: int) -> tuple:
    """The basis of one degree as expansion dicts over word indices.  Nothing
    keeps it: ``direct_complex`` computes each degree's basis once per call
    and hands it to ``substitution_differential``."""
    if family == "lie":
        return tuple(
            {_index(w, m): c for w, c in e.items()} for e in lie_projector_basis(m, n)
        )
    if family == "tr":
        return tuple({x: 1} for x in _necklaces(m, n)[1])
    raise ValueError(f"unknown family: {family}")


def substitution_differential(family: str, n: int, m: int, bases=None) -> RationalMatrix:
    """Degree m -> m+1 map of the direct complex.  ``bases`` is the pair of
    bases of degrees m and m+1 (``_degree_basis``), computed here when not
    given."""
    src_vecs, tgt_vecs = bases or (_degree_basis(family, n, m), _degree_basis(family, n, m + 1))
    if family == "tr":
        # a target word's column is that of its least rotation; each source
        # vector is {its representative's word index: 1}
        rows = differential_columns(n, m)
        least, reps = _necklaces(m + 1, n)
        col = {x: r for r, x in enumerate(reps)}
        entries = (
            (j, col[least[i]], c)
            for j, (x,) in enumerate(src_vecs)
            for i, c in rows[x].items()
        )
        return RationalMatrix.from_entries(len(src_vecs), len(tgt_vecs), entries)
    # lie: push the source Lyndon expansions through the word differential,
    # then read their coordinates in the target Lyndon basis
    src = RationalMatrix(len(src_vecs), m ** n, dict(enumerate(src_vecs)))
    images = apply_differential(src, differential_columns(n, m), (m + 1) ** n)
    return leading_coords(images, tgt_vecs, f"the Lie subspace at n={n}, m={m + 1}")


def direct_complex(family: str, n: int, m_max: int) -> CochainComplex:
    if family == "ass":
        return full_complex(n, m_max)
    # the Lie degrees' sizes are checked against witt_dim by lie_projector_basis
    bases = {m: _degree_basis(family, n, m) for m in range(1, m_max + 2)}
    dims = {m: len(b) for m, b in bases.items()}
    pairs = {m: (bases[m], bases[m + 1]) for m in range(1, m_max + 1)}
    diffs = {m: substitution_differential(family, n, m, p) for m, p in pairs.items()}
    return CochainComplex(f"direct-{family}(n={n})", n, m_max, dims, diffs)
