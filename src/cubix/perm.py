"""Permutations in one-line notation and small permutation groups.

Conventions used throughout the package:

* A permutation of degree N is stored as the tuple of images
  ``(p(1), ..., p(N))`` with values in ``1..N``.
* Composition is right-to-left: ``(p * q)(i) == p(q(i))``, i.e. ``q``
  acts first.
* ``adjacent_factorization`` returns indices ``[i1, ..., ik]`` such that
  ``p == s_{i1} * s_{i2} * ... * s_{ik}`` where ``s_i`` swaps ``i`` and
  ``i + 1``.  The word is reduced, so ``k`` equals the inversion count.

Groups are given by generators; elements are enumerated by closure and
kept sorted so that iteration order is deterministic.
"""

from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, prod


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images: tuple):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(i) = p(q(i))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Permutation(tuple(inv))

    def inversions(self) -> int:
        w = self.images
        return sum(1 for a, b in combinations(range(len(w)), 2) if w[a] > w[b])

    def sign(self) -> int:
        return -1 if self.inversions() % 2 else 1

    def cycle_type(self) -> tuple:
        """Cycle lengths, fixed points included, in decreasing order."""
        seen = set()
        lengths = []
        for start in range(1, self.degree + 1):
            length = 0
            i = start
            while i not in seen:
                seen.add(i)
                i = self(i)
                length += 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def descents(self) -> int:
        """Number of positions i with p(i) > p(i+1)."""
        w = self.images
        return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def adjacent_factorization(self) -> list:
        """Reduced word in adjacent transpositions, composing left to right.

        Right-multiplying by s_i swaps the entries in positions i, i+1 of
        the one-line word and removes exactly one inversion when applied
        at a descent, so bubble sorting the word records a reduced
        expression for the inverse; reversing it gives one for p itself.
        """
        w = list(self.images)
        rec = []
        i = 0
        while i < len(w) - 1:
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                rec.append(i + 1)
                i = max(i - 1, 0)
            else:
                i += 1
        rec.reverse()
        return rec

    def __repr__(self):
        return f"Permutation({self.images})"


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def adjacent_transposition(n: int, i: int) -> Permutation:
    """s_i in S_n, swapping i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for degree {n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


class PermutationGroup:
    def __init__(self, degree: int, generators: tuple):
        self.degree = degree
        self.generators = generators
        # groups key the per-process caches of every count, so the hash is
        # taken once
        self._hash = hash((degree, generators))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.generators) == (other.degree, other.generators)

    def __hash__(self):
        return self._hash

    @cached_property
    def elements(self) -> tuple:
        """All group elements, sorted by one-line word."""
        ident = identity_permutation(self.degree)
        seen = {ident.images: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = g * p
                    if q.images not in seen:
                        seen[q.images] = q
                        nxt.append(q)
            frontier = nxt
        return tuple(seen[w] for w in sorted(seen))

    @cached_property
    def order(self) -> int:
        # the adjacent transpositions generate S_n, so n! needs no closure
        gens = {g.images for g in self.generators}
        n = self.degree
        if all(adjacent_transposition(n, i).images in gens for i in range(1, n)):
            return factorial(n)
        return len(self.elements)

    def is_symmetric(self) -> bool:
        return self.order == factorial(self.degree)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> PermutationGroup:
    """S_n on its adjacent transpositions, one instance per n."""
    gens = tuple(adjacent_transposition(n, i) for i in range(1, n))
    return PermutationGroup(n, gens)


def cyclic_group(n: int) -> PermutationGroup:
    """Cyclic group generated by the n-cycle (1 2 ... n), as i -> i+1 mod n."""
    if n == 1:
        return trivial_group(1)
    cyc = Permutation(tuple(list(range(2, n + 1)) + [1]))
    return PermutationGroup(n, (cyc,))


def trivial_group(n: int) -> PermutationGroup:
    return PermutationGroup(n, ())


def generated_subgroup(n: int, elements) -> PermutationGroup:
    """The group formed by ``elements``, on a greedy generating set.

    Walking the elements in sorted order, each one not yet in the closure
    of those kept is kept.  The identity is never kept, and equal element
    sets get equal generators, so the groups compare equal.
    """
    gens = ()
    closure = {identity_permutation(n).images}
    for g in sorted(elements, key=lambda p: p.images):
        if g.images not in closure:
            gens += (g,)
            closure = {p.images for p in PermutationGroup(n, gens).elements}
    return PermutationGroup(n, gens)


def _partitions(total: int, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, without listing them."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def coxeter_word(partition) -> tuple:
    """The indices i1 ... ik with s_(i1) ... s_(ik) the representative of
    ``partition`` in ``cycle_classes``: s_a s_(a+1) ... s_(b-1) for each block
    [a, b] of its cycles.  Dropping the last index shortens the last cycle
    longer than 1 by one point, so it leaves the word of another cycle type
    of the same degree."""
    out = []
    start = 1
    for part in partition:
        out.extend(range(start, start + part - 1))
        start += part
    return tuple(out)


def _cycle_type_rep(partition) -> Permutation:
    images = []
    start = 1
    for part in partition:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def cycle_classes(group: PermutationGroup) -> tuple:
    """(representative, count) pairs that cover ``group``.

    Over the full symmetric group there is one pair per cycle type, in
    decreasing lexicographic order of the partition, and count is the class
    size n! / z; otherwise there is one per element, with count 1.  Sums of
    class functions over the group are thus sums of count * f(rep); every
    trace count sums one, so the pairs are built once per group.
    """
    n = group.degree
    if not group.is_symmetric():
        return tuple((g, 1) for g in group.elements)
    out = []
    for partition in _partitions(n):
        z = prod(k ** m * factorial(m) for k, m in Counter(partition).items())
        out.append((_cycle_type_rep(partition), factorial(n) // z))
    return tuple(out)


@lru_cache(maxsize=None)
def class_cycle_types(group: PermutationGroup) -> dict:
    """{rep: cycle type} over the representatives of ``cycle_classes``."""
    return {rep: rep.cycle_type() for rep, _ in cycle_classes(group)}


def young_subgroup(content: tuple) -> PermutationGroup:
    """Product of symmetric groups on consecutive blocks of sizes ``content``.

    Zero parts are allowed and contribute nothing; the degree is the sum
    of the parts.
    """
    n = sum(content)
    gens = []
    offset = 0
    for part in content:
        for i in range(offset + 1, offset + part):
            gens.append(adjacent_transposition(n, i))
        offset += part
    return PermutationGroup(n, tuple(gens))
