"""Right modules over symmetric groups as explicit matrix representations.

A module is given by one matrix per adjacent transposition s_1 ... s_{N-1},
acting on ROW coordinate vectors from the right.  The Coxeter presentation
(order 2, braid, distant commutation) is verified at construction, which
makes the action of an arbitrary permutation well defined as the product of
generator matrices along any reduced word; with the composition convention
(p * q)(i) = p(q(i)) the matrices satisfy act(p * q) = act(p) * act(q).

Built-in modules:

* ``trivial`` / ``sign``: one-dimensional.
* ``regular``: basis = permutations of [n], right multiplication; built by
  ``induce`` from the trivial module of the trivial group.
* ``lie``: the left-normed bracket basis of the multilinear Lie elements,
  dimension (n-1)!; a letter permutation sends a multilinear word w to
  s^{-1} o w, and the matrices express that relabeling in the bracket basis.
* ``tr_cyclic``: basis = lexicographically least representatives of the
  right cosets C_n \\ S_n; built by ``induce`` from the trivial module of
  the cyclic group C_n.
* ``lie_cyclic``: the Lie elements as a module over S_{n+1} via the cyclic
  word action on associative words, restricted to the Lie subspace.

The irreducible S_N-modules V_lambda, one per partition lambda of N, are
built by ``specht`` in Young's seminormal form.  Its basis is the standard
tableaux T of shape lambda.  With the content c = col - row of a box and
r = c_T(i+1) - c_T(i), s_i sends e_T to e_T / r plus, when s_i T is
standard, a multiple of e_(s_i T): 1 when i lies in a higher row of T than
i + 1, and 1 - 1/r^2 otherwise.  When i and i + 1 share a row (r = 1) or a
column (r = -1), s_i T is not standard and e_T is an eigenvector.  Its
character chi_lambda is read by the Murnaghan-Nakayama rule
(``irreducible_character``): chi_lambda(mu) sums, over the rim hooks of
length mu_1 that can be removed from lambda, the height sign times
chi_(lambda less the hook)(mu less mu_1).

Every count reads a module's character through ``class_function``.  A
module with a closed class function, ``closed`` (a builtin kind's
``closed_character``, which computes each value as it is read, or a
V_lambda's chi_lambda), is read by cycle type; any other is traced.  A
``ModuleSpec`` over S_N is traced once (``ModuleSpec.traced``), on the
representatives of ``perm.cycle_classes``: the representative of a cycle
type is the product s_a s_(a+1) ... s_(b-1) over its blocks [a, b]
(``perm.coxeter_word``), and dropping the last letter of such a word leaves
the word of another class, so the words form a prefix tree and each
product along it is taken once.  The last factor of each word is folded
into the trace, trace(X s) = sum over i, k of X_ik s_ki
(``RationalMatrix.product_trace``): at N = 6 the 11 classes cost 5
products, where act(rep) takes 21.  Each product is act of a
representative, since act(p q) = act(p) act(q) holds once the Coxeter check
has passed.  A subgroup module traces act(g) at each of its elements.  A
``ModuleCharacter`` carries a closed class function and no matrices: the
isotypic route of ``cubical.py`` reads a builtin kind that way, so it
never builds the module.

Coinvariant spaces are built by the orbit engine from a stabilizer's
generators (``cubical.CoinvariantBasis``); the averaging projector the tests
check them against lives in ``tests/conftest.py``.
"""

import json
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial

from .freelie import lie_basis_multilinear, mobius, totient
from .linalg import (
    InvariantError,
    RationalMatrix,
    RowSpanSolver,
    parse_scalar,
)
from .perm import (
    Permutation,
    PermutationGroup,
    _partitions,
    adjacent_transposition,
    class_cycle_types,
    coxeter_word,
    cycle_classes,
    cyclic_group,
    identity_permutation,
    partition_count,
    symmetric_group,
    trivial_group,
)


def _check_coxeter(name, n, dim, mats):
    """Raise ValueError naming the first violated relation, if any.  A
    braid relation aba = bab is read as (ab) a = b (ab): three products."""
    ident = RationalMatrix.identity(dim)
    for i, a in enumerate(mats, start=1):
        if a.shape != (dim, dim):
            raise ValueError(f"{name}: generator s{i} is not {dim}x{dim}")
        if a * a != ident:
            raise ValueError(f"{name}: generator s{i} does not square to the identity")
    for i in range(1, n - 1):
        a, b = mats[i - 1], mats[i]
        ab = a * b
        if ab * a != b * ab:
            raise ValueError(
                f"{name}: braid relation s{i} s{i + 1} s{i} = s{i + 1} s{i} s{i + 1} fails"
            )
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = mats[i - 1], mats[j - 1]
            if a * b != b * a:
                raise ValueError(f"{name}: generators s{i} and s{j} do not commute")


class ModuleSpec:
    """Right S_N-module presented by adjacent-transposition matrices.

    ``closed`` is the character in closed form, {cycle type: value}, which
    ``class_function`` reads: a builtin kind's or a V_lambda's; None
    otherwise.
    """

    closed = None

    def __init__(self, name, N, dim, basis_labels, gen_actions):
        if len(basis_labels) != dim:
            raise ValueError(f"{name}: {len(basis_labels)} labels for dim {dim}")
        if len(gen_actions) != max(N - 1, 0):
            raise ValueError(
                f"{name}: expected {N - 1} generator matrices, got {len(gen_actions)}"
            )
        self.name = name
        self.N = N
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.gen_actions = list(gen_actions)
        _check_coxeter(name, N, dim, gen_actions)
        # act(s_i) is the generator matrix itself: no caller mutates what act returns
        self._memo = {identity_permutation(N).images: RationalMatrix.identity(dim)}
        for i, mat in enumerate(self.gen_actions, start=1):
            self._memo[adjacent_transposition(N, i).images] = mat

    def act(self, p: Permutation) -> RationalMatrix:
        if p.degree != self.N:
            raise ValueError(f"{self.name}: permutation degree {p.degree} != {self.N}")
        mat = self._memo.get(p.images)
        if mat is None:
            first, *rest = p.adjacent_factorization()
            mat = self.gen_actions[first - 1]
            for i in rest:
                mat = mat * self.gen_actions[i - 1]
            self._memo[p.images] = mat
        return mat

    def character(self, p: Permutation):
        return self.act(p).trace()

    @cached_property
    def traced(self) -> dict:
        """{cycle type: chi_M} over S_N, traced on the block-Coxeter words
        of the class representatives (module docstring); read once per
        module."""
        gens = self.gen_actions
        products = {}

        def product(word):
            # act of s_(word[0]) ... s_(word[-1]), a generator taken as it is
            if len(word) == 1:
                return gens[word[0] - 1]
            mat = products.get(word)
            if mat is None:
                mat = products[word] = product(word[:-1]) * gens[word[-1] - 1]
            return mat

        out = {}
        for t in _partitions(self.N):
            word = coxeter_word(t)
            if not word:
                out[t] = self.dim
            elif len(word) == 1:
                out[t] = gens[word[0] - 1].trace()
            else:
                out[t] = product(word[:-1]).product_trace(gens[word[-1] - 1])
        return out

    def __repr__(self):
        return f"ModuleSpec({self.name}, N={self.N}, dim={self.dim})"


class SubgroupModule:
    """Module over an arbitrary permutation group, given on its generators.

    The full action table is built by closure and every product relation
    act(s * h) = act(s) * act(h) is checked, so the input matrices must
    define an actual representation of the group.
    """

    closed = None

    def __init__(self, name, group: PermutationGroup, dim, gen_actions, basis_labels=None):
        if len(gen_actions) != len(group.generators):
            raise ValueError(f"{name}: one matrix per group generator required")
        self.name = name
        self.group = group
        self.dim = dim
        self.basis_labels = basis_labels or [f"b{i}" for i in range(dim)]
        table = {identity_permutation(group.degree).images: RationalMatrix.identity(dim)}
        frontier = [identity_permutation(group.degree)]
        while frontier:
            nxt = []
            for h in frontier:
                mh = table[h.images]
                for s, ms in zip(group.generators, gen_actions):
                    q = s * h
                    if q.images not in table:
                        table[q.images] = ms * mh
                        nxt.append(q)
            frontier = nxt
        for h in group.elements:
            mh = table[h.images]
            for s, ms in zip(group.generators, gen_actions):
                if table[(s * h).images] != ms * mh:
                    raise ValueError(f"{name}: generator matrices do not define an action")
        self._table = table

    def act(self, g: Permutation) -> RationalMatrix:
        mat = self._table.get(g.images)
        if mat is None:
            raise ValueError(f"{self.name}: {g} is not in the group")
        return mat

    def character(self, g: Permutation):
        return self.act(g).trace()

    def __repr__(self):
        return f"SubgroupModule({self.name}, |G|={self.group.order}, dim={self.dim})"


class ModuleCharacter:
    """An S_N-module known by its closed class function alone: name, N,
    ``closed`` and the dimension closed[1^N], and no matrices.  A builtin
    kind's closed form lists no class before it is read (``ClosedCharacter``)."""

    def __init__(self, name, N, closed):
        self.name = name
        self.N = N
        self.closed = closed
        self.dim = closed[(1,) * N]


def restrict(module: ModuleSpec, group: PermutationGroup) -> SubgroupModule:
    if group.degree != module.N:
        raise ValueError("degree mismatch")
    mats = [module.act(g) for g in group.generators]
    return SubgroupModule(
        f"{module.name}|G", group, module.dim, mats, module.basis_labels
    )


def trivial_subgroup_module(group: PermutationGroup) -> SubgroupModule:
    one = RationalMatrix.identity(1)
    return SubgroupModule("triv", group, 1, [one] * len(group.generators), ["1"])


# -- built-in catalog ----------------------------------------------------


def _word_index(words):
    return {w: i for i, w in enumerate(words)}


def _perm_matrix(words, index, mapping):
    """0/1 matrix of a basis permutation w -> mapping(w), rows = source."""
    entries = ((index[w], index[mapping(w)], 1) for w in words)
    return RationalMatrix.from_entries(len(words), len(words), entries)


def _bracket_label(seq):
    out = f"x{seq[0]}"
    for x in seq[1:]:
        out = f"[{out},x{x}]"
    return out


def _restrict_to_lie(words, basis, word_gens):
    """Word-space generator matrices restricted to the bracket basis.

    ``words`` is sorted, so each bracket leads at its own word and the rows
    are in the echelon form ``RowSpanSolver`` takes.  The generators must
    preserve the Lie subspace; ``solve`` checks that exactly for every
    basis vector.
    """
    index = _word_index(words)
    rows = [{index[w]: c for w, c in vec.items()} for _, vec in basis]
    solver = RowSpanSolver(rows, len(words))
    return [solver.solve(solver.basis * gen, "the Lie subspace") for gen in word_gens]


@lru_cache(maxsize=None)
def cyclic_action(n: int) -> ModuleSpec:
    """S_{n+1} acting on the n! words of length n via cyclic words.

    A word w stands for the cyclic word (0, w_1, ..., w_n); g relabels the
    letters {0, ..., n} (shifted to 1..n+1 internally), the result is
    rotated so the 0 letter leads, and the remaining word is read off.
    """
    words = sorted(permutations(range(1, n + 1)))
    index = _word_index(words)
    mats = []
    for i in range(1, n + 1):
        s = adjacent_transposition(n + 1, i)

        def move(w, s=s):
            cyc = (1,) + tuple(x + 1 for x in w)
            relabeled = tuple(s(x) for x in cyc)
            k = relabeled.index(1)
            rotated = relabeled[k:] + relabeled[:k]
            return tuple(x - 1 for x in rotated[1:])

        mats.append(_perm_matrix(words, index, move))
    labels = ["".join(map(str, w)) for w in words]
    return ModuleSpec(f"ass_cyclic({n})", n + 1, len(words), labels, mats)


def builtin(kind: str, n: int) -> ModuleSpec:
    """The builtin module, built once per (kind, n), with its closed form."""
    module = _build(kind, n)
    module.closed = closed_character(kind, module.N)
    return module


def builtin_character(kind: str, n: int) -> ModuleCharacter:
    """``builtin(kind, n)`` as its closed class function, with no module built."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown module kind: {kind}")
    if n < 1:
        raise ValueError("n must be at least 1")
    N = n + 1 if kind == "lie_cyclic" else n
    return ModuleCharacter(f"{kind}({n})", N, closed_character(kind, N))


@lru_cache(maxsize=None)
def _build(kind: str, n: int) -> ModuleSpec:
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind == "trivial":
        one = RationalMatrix.identity(1)
        return ModuleSpec(f"trivial({n})", n, 1, ["1"], [one] * (n - 1))
    if kind == "sign":
        neg = RationalMatrix.from_rows([[-1]])
        return ModuleSpec(f"sign({n})", n, 1, ["sgn"], [neg] * (n - 1))
    if kind in ("regular", "tr_cyclic"):
        group = cyclic_group(n) if kind == "tr_cyclic" else trivial_group(n)
        module = induce(trivial_subgroup_module(group))
        module.name = f"{kind}({n})"
        module.basis_labels = [b.removesuffix(":1") for b in module.basis_labels]
        return module
    if kind == "lie":
        basis = lie_basis_multilinear(n)
        labels = [_bracket_label(seq) for seq, _ in basis]
        if n == 1:
            return ModuleSpec("lie(1)", 1, 1, labels, [])
        words = sorted(permutations(range(1, n + 1)))
        index = _word_index(words)
        relabel = [
            _perm_matrix(words, index, lambda w, s=s: tuple(s(x) for x in w))
            for s in (adjacent_transposition(n, i) for i in range(1, n))
        ]
        mats = _restrict_to_lie(words, basis, relabel)
        return ModuleSpec(f"lie({n})", n, len(basis), labels, mats)
    if kind == "lie_cyclic":
        words = sorted(permutations(range(1, n + 1)))
        basis = lie_basis_multilinear(n)
        mats = _restrict_to_lie(words, basis, cyclic_action(n).gen_actions)
        labels = [_bracket_label(seq) for seq, _ in basis]
        return ModuleSpec(f"lie_cyclic({n})", n + 1, len(basis), labels, mats)
    raise ValueError(f"unknown module kind: {kind}")


BUILTIN_KINDS = ("trivial", "sign", "regular", "lie", "tr_cyclic", "lie_cyclic")
# the builtin kind behind each module family of the CLI and of the realization checks
FAMILY_KINDS = {"trivial": "trivial", "sign": "sign", "regular": "regular", "ass": "regular",
                "lie": "lie", "tr": "tr_cyclic", "sder": "lie_cyclic"}


# -- characters ------------------------------------------------------------


def lie_value(cycle_type) -> int:
    """Klyachko's character of Lie_n on a cycle type: mu(d) (k-1)! d^(k-1) on
    d^k, that is on k cycles of one length d, and 0 on every other type."""
    d, k = cycle_type[0], len(cycle_type)
    return mobius(d) * factorial(k - 1) * d ** (k - 1) if cycle_type[-1] == d else 0


def _closed_value(kind: str, t, N: int) -> int:
    d, k = t[0], len(t)
    if kind == "trivial":
        return 1
    if kind == "sign":
        return (-1) ** (N - k)
    if kind == "regular":
        return factorial(N) if d == 1 else 0
    if kind == "lie":
        return lie_value(t)
    if kind == "tr_cyclic":
        # induced from C_N: the elements of C_N of order d, phi(d) of them,
        # times the centralizer d^k k! of d^k, over |C_N|
        return totient(d) * d ** k * factorial(k) // N if t[-1] == d else 0
    # lie_cyclic, over S_(n+1) with N = n + 1: Ind Lie_n = Lie_(n+1) + lie_cyclic
    # (Whitehouse), and the induced character sums Lie_n over fixed points
    fixed = t.count(1)
    return (fixed * lie_value(t[:-1]) if fixed else 0) - lie_value(t)


class ClosedCharacter(Mapping):
    """{cycle type: character} of a builtin kind over S_N, in closed form.
    Each value is computed when it is read, so a count over a few classes,
    or a cap check on p(N), comes before any listing of the partitions."""

    def __init__(self, kind: str, N: int):
        self.kind = kind
        self.N = N

    def __getitem__(self, t) -> int:
        return _closed_value(self.kind, t, self.N)

    def __iter__(self):
        return _partitions(self.N)

    def __len__(self) -> int:
        return partition_count(self.N)


def closed_character(kind: str, N: int) -> ClosedCharacter:
    """The character of a builtin kind over S_N in closed form.

    Tier-1 pins it equal to the traced character of ``builtin`` on every
    class, and ``module-info`` compares the two on the module it prints.
    """
    return ClosedCharacter(kind, N)


def class_function(module, group: PermutationGroup) -> dict:
    """{rep: chi_M(rep)} over the representatives of ``perm.cycle_classes``.

    A module with a closed class function (a builtin kind, a V_lambda or a
    ``ModuleCharacter``) reads it by cycle type.  Any other is traced: a
    ``ModuleSpec`` over S_N once per module, on the block-Coxeter words of
    the classes (``ModuleSpec.traced``), and every other (subgroup)
    module at each representative, act(rep).
    """
    types = class_cycle_types(group)
    values = module.closed
    if values is None and isinstance(module, ModuleSpec) and group == symmetric_group(module.N):
        values = module.traced
    if values is None:
        return {rep: module.character(rep) for rep in types}
    return {rep: values[t] for rep, t in types.items()}


def character_count(module, group: PermutationGroup, f, divisor: int, what: str) -> int:
    """(1/(|G| divisor)) sum over g in G of character(g) * f(g), for a class
    function f; raise ``InvariantError`` naming ``what`` unless it is a
    non-negative integer.

    Both factors are class functions, so the sum runs over
    ``perm.cycle_classes``: p(n) values of ``class_function`` over the full
    symmetric group.
    """
    chi = class_function(module, group)
    total = sum(count * chi[rep] * f(rep) for rep, count in cycle_classes(group))
    dim, rest = divmod(total, group.order * divisor)
    if rest or dim < 0:
        raise InvariantError(f"{what} is {Fraction(total, group.order * divisor)}, not a dimension")
    return dim


def multiplicities(module, group: PermutationGroup) -> dict:
    """{shape: a_lambda} over the partitions of N with a_lambda > 0, where
    the module induced from G to S_N is the sum of a_lambda copies of
    V_lambda: a_lambda = <chi_M, Res chi_lambda>_G, by Frobenius reciprocity.

    Each a_lambda must be a non-negative integer, and the sum of a_lambda
    chi_lambda(1) must be the induced dimension [S_N : G] dim M; either
    failure raises ``InvariantError``.
    """
    N = group.degree
    types = class_cycle_types(group)
    out = {}
    for shape in _partitions(N):
        what = f"the multiplicity of {_specht_name(shape)} in {module.name}"
        a = character_count(module, group, lambda g: irreducible_value(shape, types[g]), 1, what)
        if a:
            out[shape] = a
    induced = module.dim * factorial(N) // group.order
    total = sum(a * irreducible_value(shape, (1,) * N) for shape, a in out.items())
    if total != induced:
        raise InvariantError(
            f"{module.name}: its irreducibles sum to dimension {total}, the induced "
            f"module has {induced}"
        )
    return out


def sgn_coinvariants_dim(module, group: PermutationGroup) -> int:
    """(1/|G|) sum of sign(g) * character(g), the dimension of M (x)_G sgn."""
    return character_count(
        module, group, Permutation.sign, 1, f"the sign-isotypic dimension of {module.name}"
    )


# -- irreducible modules ----------------------------------------------------


@lru_cache(maxsize=None)
def _rim_hook_sum(betas: tuple, cycles: tuple) -> int:
    """chi_lambda on the cycle type ``cycles``, lambda given by its beta-set
    (lambda_i + len - i, decreasing): removing a rim hook of length k moves a
    bead b to an empty b - k, and its height is the number of beads passed."""
    if not cycles:
        return 1
    k, rest = cycles[0], cycles[1:]
    total = 0
    for b in betas:
        if b >= k and b - k not in betas:
            height = sum(1 for c in betas if b - k < c < b)
            moved = tuple(sorted((b - k if c == b else c for c in betas), reverse=True))
            total += (-1) ** height * _rim_hook_sum(moved, rest)
    return total


def irreducible_value(shape: tuple, cycle_type: tuple) -> int:
    """chi_lambda on a cycle type, for the partition ``shape`` of N, by the
    Murnaghan-Nakayama rule (module docstring)."""
    betas = tuple(part + len(shape) - 1 - i for i, part in enumerate(shape))
    return _rim_hook_sum(betas, cycle_type)


@lru_cache(maxsize=None)
def irreducible_character(shape: tuple) -> dict:
    """{cycle type: chi_lambda} over S_N, for the partition ``shape`` of N."""
    return {t: irreducible_value(shape, t) for t in _partitions(sum(shape))}


def standard_tableaux(shape: tuple) -> list:
    """The standard tableaux of ``shape``, each as the 0-based row of every
    letter 1..N, in lexicographic order."""
    n = sum(shape)
    out = []

    def extend(word, filled):
        if len(word) == n:
            out.append(tuple(word))
            return
        for r, part in enumerate(shape):
            if filled[r] < part and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                extend(word + [r], filled)
                filled[r] -= 1

    extend([], [0] * len(shape))
    return out


def _specht_name(shape: tuple) -> str:
    return f"V({','.join(map(str, shape))})"


def specht_character(shape: tuple) -> ModuleCharacter:
    """V_lambda as its closed class function chi_lambda, with no module built."""
    return ModuleCharacter(_specht_name(shape), sum(shape), irreducible_character(shape))


def specht(shape: tuple) -> ModuleSpec:
    """V_lambda in Young's seminormal form (module docstring), carrying
    chi_lambda as its closed class function.  Its Coxeter check is an
    internal invariant: a failure raises ``InvariantError``."""
    tableaux = standard_tableaux(shape)
    index = {t: a for a, t in enumerate(tableaux)}
    n, dim = sum(shape), len(tableaux)
    mats = []
    for i in range(1, n):
        entries = []
        for t, a in index.items():
            # rows and columns of the letters i and i + 1
            ri, rj = t[i - 1], t[i]
            r = (t[:i].count(rj) - rj) - (t[: i - 1].count(ri) - ri)
            entries.append((a, a, Fraction(1, r)))
            if abs(r) > 1:
                moved = index[t[: i - 1] + (rj, ri) + t[i + 1 :]]
                entries.append((a, moved, 1 if ri < rj else 1 - Fraction(1, r * r)))
        mats.append(RationalMatrix.from_entries(dim, dim, entries))
    labels = ["".join(str(r + 1) for r in t) for t in tableaux]
    name = _specht_name(shape)
    try:
        module = ModuleSpec(name, n, dim, labels, mats)
    except ValueError as exc:
        raise InvariantError(f"the seminormal form of {name}: {exc}") from None
    module.closed = irreducible_character(shape)
    return module


# -- induction ------------------------------------------------------------


def induce(module: SubgroupModule) -> ModuleSpec:
    """Induced module over the full symmetric group on the same letters.

    Basis = (right coset representative, module basis) pairs; s sends
    (t, b) to (t', b * g) where t * s = g * t' with t' the lexicographically
    least element of its coset and g in the subgroup.
    """
    group = module.group
    n = group.degree
    elems = [g.images for g in group.elements]

    def coset_rep(p: Permutation) -> Permutation:
        return Permutation(min(tuple(e[x - 1] for x in p.images) for e in elems))

    reps = sorted(
        {coset_rep(Permutation(w)).images for w in permutations(range(1, n + 1))}
    )
    rep_index = {w: i for i, w in enumerate(reps)}
    dim = module.dim * len(reps)
    mats = []
    for i in range(1, n):
        s = adjacent_transposition(n, i)
        entries = []
        for t_imgs, ti in rep_index.items():
            u = Permutation(t_imgs) * s
            t2 = coset_rep(u)
            g = u * t2.inverse()
            block = module.act(g)
            for b in block.rows:
                for b2, v in block.row_dict(b).items():
                    entries.append(
                        (ti * module.dim + b, rep_index[t2.images] * module.dim + b2, v)
                    )
        mats.append(RationalMatrix.from_entries(dim, dim, entries))
    labels = [
        f"{''.join(map(str, t))}:{bl}" for t in reps for bl in module.basis_labels
    ]
    return ModuleSpec(f"ind_{module.name}", n, dim, labels, mats)


# -- custom modules -------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_zero(v) -> bool:
    """The int 0, or the string "0" that ``serialize_module`` writes: an
    entry ``load_module`` leaves out.  Any other spelling of zero, False and
    0.0 included, is read (or refused) by ``_entry``."""
    return v == "0" or _is_int(v) and not v


def _entry(name: str, k: int, v):
    """A generator entry: an int, or a string that parses as one or as p/q."""
    if _is_int(v):
        return v
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name}: generator s{k} entry {v!r} is not an int or a 'p/q' string")


def load_module(data) -> ModuleSpec:
    """Build a module from the JSON dict format.

    Mistyped fields raise ValueError: name is a string, N an int >= 1, dim
    an int >= 0, basis_labels a list of strings, and generators a list of
    dim x dim lists whose entries are ints or "p/q" strings.  Coxeter
    validation errors name the first violated relation.
    """
    if isinstance(data, str):
        with open(data) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("custom module: the top level must be an object")
    for key in ("name", "N", "dim", "basis_labels", "generators"):
        if key not in data:
            raise ValueError(f"custom module: missing field {key!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise ValueError(f"custom module: name must be a string, not {name!r}")
    n, dim = data["N"], data["dim"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"{name}: N must be an integer >= 1, not {n!r}")
    if not _is_int(dim) or dim < 0:
        raise ValueError(f"{name}: dim must be an integer >= 0, not {dim!r}")
    labels = data["basis_labels"]
    if not isinstance(labels, list) or not all(isinstance(b, str) for b in labels):
        raise ValueError(f"{name}: basis_labels must be a list of strings")
    if not isinstance(data["generators"], list):
        raise ValueError(f"{name}: generators must be a list of matrices")
    mats = []
    for k, rows in enumerate(data["generators"], start=1):
        if not (
            isinstance(rows, list)
            and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in rows)
        ):
            raise ValueError(f"{name}: generator s{k} is not {dim}x{dim}")
        nonzero = [{j: _entry(name, k, v) for j, v in enumerate(r) if not _is_zero(v)} for r in rows]
        mats.append(RationalMatrix.from_row_dicts(nonzero, dim, dim))
    return ModuleSpec(name, n, dim, labels, mats)


def serialize_module(module: ModuleSpec) -> dict:
    return {
        "name": module.name,
        "N": module.N,
        "dim": module.dim,
        "basis_labels": list(module.basis_labels),
        "generators": [
            [[str(a.entry(i, j)) for j in range(module.dim)] for i in range(module.dim)]
            for a in module.gen_actions
        ],
    }


def random_basis_change(module: ModuleSpec, seed: int) -> ModuleSpec:
    """Conjugate all generators by a random integer shear product.

    The change of basis is unimodular, so the conjugated matrices are still
    exact integer/rational and present the same module.
    """
    import random

    rng = random.Random(seed)
    dim = module.dim
    p = RationalMatrix.identity(dim)
    p_inv = RationalMatrix.identity(dim)
    for _ in range(min(4 * dim, 24)):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        v = rng.choice((-2, -1, 1, 2))
        shear = RationalMatrix.identity(dim)
        shear.rows.setdefault(i, {})[j] = v
        unshear = RationalMatrix.identity(dim)
        unshear.rows.setdefault(i, {})[j] = -v
        p = p * shear
        p_inv = unshear * p_inv
    if p * p_inv != RationalMatrix.identity(dim):
        raise InvariantError(f"basis change of {module.name} seed {seed}: P P^-1 is not 1")
    mats = [p * a * p_inv for a in module.gen_actions]
    return ModuleSpec(
        f"{module.name}~seed{seed}", module.N, dim, module.basis_labels, mats
    )
