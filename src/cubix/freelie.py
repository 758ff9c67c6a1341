"""Free Lie algebra combinatorics: Lyndon words and bracket expansions.

A Lie word is a binary bracketing tree: a leaf is a letter (int >= 1) and an
internal node is a pair ``(left, right)`` meaning the bracket [left, right].
Lie elements are always carried as expansions inside the associative word
space, i.e. dicts mapping word tuples to integer coefficients, so membership
and equality questions reduce to linear algebra instead of Hall rewriting.

Two bases are provided and both are verified independent, since
downstream cohomology claims silently depend on them being bases:

* the left-normed multilinear basis [[...[x_1, x_{s(2)}], ...], x_{s(n)}]
  indexed by permutations of {2, ..., n}, of size (n-1)!, by their leading
  words too: in sorted word order the bracket of x_1 s(2) ... s(n) leads at
  that word with coefficient 1 (Reutenauer, Free Lie Algebras), so the
  vectors are in echelon form, and the ``RowSpanSolver`` that every use in
  ``modules`` passes them through checks that echelon form;
* expansions of the standard bracketings of Lyndon words of length n over
  the alphabet [m], of size witt_dim(m, n), by their leading words: the
  expansion of a Lyndon word w is w plus lexicographically larger words
  (the classical triangularity of the standard bracketing), so the
  vectors are in echelon form.  Each expansion is checked to lead with its
  word at coefficient 1.

The Moebius function and Euler's totient live here too, next to
``witt_dim``: the closed-form characters (``modules``), the Dynkin trace
(``harrison``) and the necklace count (``realizations``) read them.  Since
the realizations are an oracle of the engine, this module imports nothing
but ``linalg``, and a tier-1 test keeps it so.
"""

from functools import lru_cache, reduce
from itertools import permutations
from math import gcd

from .linalg import InvariantError


def expand(tree) -> dict:
    """Multilinear expansion of a bracket tree into associative words."""
    if isinstance(tree, int):
        return {(tree,): 1}
    left, right = expand(tree[0]), expand(tree[1])
    out = {}
    for wu, cu in left.items():
        for wv, cv in right.items():
            c = cu * cv
            uv = wu + wv
            vu = wv + wu
            out[uv] = out.get(uv, 0) + c
            out[vu] = out.get(vu, 0) - c
    return {w: c for w, c in out.items() if c}


def left_normed(letters):
    """[[...[a_1, a_2], ...], a_k] as a bracket tree."""
    return reduce(lambda a, b: (a, b), letters)


def is_lyndon(word) -> bool:
    """Strictly smaller than every proper suffix (hence aperiodic)."""
    return all(tuple(word) < tuple(word[i:]) for i in range(1, len(word)))


def lyndon_words(m: int, n: int) -> list:
    """All Lyndon words of length n over the alphabet 1..m, in lex order.

    Duval's generation walks the Lyndon words of length at most n in lex
    order: the next one repeats w up to length n, drops the trailing
    letters m and raises the last letter by one.
    """
    out, w = [], [1]
    while w:
        if len(w) == n:
            out.append(tuple(w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == m:
            w.pop()
        if w:
            w[-1] += 1
    return out


def mobius(d: int) -> int:
    """The Moebius function: (-1)^r if d is a product of r distinct primes, else 0."""
    out, p = 1, 2
    while p * p <= d:
        if not d % p:
            d //= p
            if not d % p:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def totient(d: int) -> int:
    """Euler's phi: the residues 1..d prime to d."""
    return sum(1 for r in range(1, d + 1) if gcd(r, d) == 1)


def witt_dim(m: int, n: int) -> int:
    total = sum(mobius(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise InvariantError(f"Witt dimension m={m} n={n}: {total} is not divisible by {n}")
    return total // n


def lyndon_bracketing(word):
    """Standard bracketing: split off the longest proper Lyndon suffix."""
    if len(word) == 1:
        return word[0]
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return (lyndon_bracketing(word[:i]), lyndon_bracketing(word[i:]))
    raise ValueError(f"not a Lyndon word: {word}")


@lru_cache(maxsize=None)
def lyndon_expansion(word) -> dict:
    """The expansion of the standard bracketing of a Lyndon word.  It does
    not depend on the alphabet, so every degree shares it."""
    return expand(lyndon_bracketing(word))


@lru_cache(maxsize=None)
def lie_basis_multilinear(n: int):
    """Left-normed brackets [[...[x_1, x_{s(2)}], ...], x_{s(n)}].

    Returns a tuple of (letter sequence, expansion dict) pairs, one per
    permutation s of {2, ..., n}.  Each leads, in sorted word order, at its
    own letter sequence with coefficient 1.  ``modules`` restricts the word
    action to them through ``RowSpanSolver``, which raises unless the rows
    are in echelon form, so their independence is checked where they are
    used.
    """
    if n == 1:
        return (((1,), {(1,): 1}),)
    out = []
    for rest in permutations(range(2, n + 1)):
        seq = (1,) + rest
        out.append((seq, expand(left_normed(seq))))
    return tuple(out)


@lru_cache(maxsize=None)
def lie_projector_basis(m: int, n: int):
    """Expansions of standard bracketings of Lyndon words, lex order.

    A basis of the degree-n part of the free Lie algebra on m generators
    inside the word space; verified echelon (each word leads its expansion
    at coefficient 1) with witt_dim(m, n) members.
    """
    ws = lyndon_words(m, n)
    vectors = tuple(lyndon_expansion(w) for w in ws)
    expected = witt_dim(m, n)
    for w, vec in zip(ws, vectors):
        if min(vec) != w or vec[w] != 1:
            raise InvariantError(f"Lyndon basis m={m} n={n}: {w} does not lead its expansion")
    if len(vectors) != expected:
        raise InvariantError(
            f"Lyndon basis m={m} n={n}: {len(vectors)} words, expected {expected}"
        )
    return vectors
