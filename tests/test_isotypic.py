"""The isotypic route: Murnaghan-Nakayama characters, seminormal Specht
modules, multiplicities, and Betti tables summed over the irreducibles."""

import json
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

import cubix.cubical as cubical
import cubix.modules as modules
from cubix.cli import main
from cubix.harrison import harrison_complex
from cubix.linalg import RationalMatrix
from cubix.modules import (
    builtin,
    builtin_character,
    irreducible_character,
    multiplicities,
    random_basis_change,
    serialize_module,
    specht,
    standard_tableaux,
)
from cubix.perm import (
    _partitions,
    cycle_classes,
    partition_count,
    symmetric_group,
    trivial_group,
)


def hook_length_dimension(shape):
    """n! over the product of the hook lengths of the boxes of ``shape``."""
    conjugate = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(
        shape[i] - j + conjugate[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


@pytest.mark.parametrize("n", range(1, 8))
def test_murnaghan_nakayama_rows_are_orthonormal(n):
    classes = [(rep.cycle_type(), count) for rep, count in cycle_classes(symmetric_group(n))]
    shapes = list(_partitions(n))
    chars = {shape: irreducible_character(shape) for shape in shapes}
    for a in shapes:
        assert chars[a][(1,) * n] == hook_length_dimension(a) == len(standard_tableaux(a))
        for b in shapes:
            inner = sum(count * chars[a][t] * chars[b][t] for t, count in classes)
            assert inner == (factorial(n) if a == b else 0), (a, b)


def test_partition_count_is_the_number_of_partitions():
    assert [partition_count(n) for n in range(13)] == [
        len(list(_partitions(n))) for n in range(13)
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_seminormal_form_traces_to_chi_lambda(n):
    group = symmetric_group(n)
    for shape in _partitions(n):
        module = specht(shape)
        traced = {rep.cycle_type(): module.character(rep) for rep, _ in cycle_classes(group)}
        assert traced == irreducible_character(shape) == module.closed, shape


def test_multiplicities_of_known_modules():
    sym = {n: symmetric_group(n) for n in (4, 6)}
    # Lie elements on 5 letters as a module over S_6, dims 9 + 10 + 5 = 24
    assert multiplicities(builtin_character("lie_cyclic", 5), sym[6]) == {
        (4, 2): 1, (3, 1, 1, 1): 1, (2, 2, 2): 1,
    }
    dims = {shape: len(standard_tableaux(shape)) for shape in _partitions(4)}
    # the regular module, and the trivial module of the trivial group
    # induced: each V_lambda f_lambda times
    assert multiplicities(builtin("regular", 4), sym[4]) == dims
    assert multiplicities(builtin_character("trivial", 4), trivial_group(4)) == dims
    assert multiplicities(builtin("sign", 4), sym[4]) == {(1, 1, 1, 1): 1}
    # a traced module reads the same multiplicities as its closed form
    moved = random_basis_change(builtin("lie", 4), 3)
    assert moved.closed is None
    assert multiplicities(moved, sym[4]) == multiplicities(builtin("lie", 4), sym[4])


@pytest.mark.parametrize("family", ["full", "ass", "lie", "tr", "sder"])
def test_isotypic_tables_equal_the_quotient_ones(family, capsys):
    for n in range(1, 7):
        argv = ["betti", "--family", family, "--n", str(n)]
        assert main(argv + ["--mode", "quotient"]) == 0
        quotient = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == quotient, n


@pytest.mark.parametrize("seed", [1, 7])
def test_a_dense_basis_change_sums_like_its_quotient(seed, tmp_path, capsys):
    # the benchmark's custom module: a seeded basis change of lie_cyclic(5)
    path = tmp_path / "sder5.json"
    module = random_basis_change(builtin("lie_cyclic", 5), seed)
    path.write_text(json.dumps(serialize_module(module)))
    argv = ["betti", "--family", "custom", "--custom", str(path)]
    assert main(argv + ["--mode", "quotient"]) == 0
    quotient = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == quotient
    assert quotient.splitlines()[-1] == "cohomology: 0"


def test_builtin_families_build_no_module(monkeypatch, capsys):
    argvs = [
        ["betti", "--family", family, "--n", "4"]
        for family in ("ass", "lie", "tr", "sder", "harrison")
    ]
    want = []
    for argv in argvs:
        assert main(argv + ["--mode", "quotient"]) == 0
        want.append(capsys.readouterr().out)

    def refuse(kind, n):
        raise AssertionError(f"built {kind}({n})")

    monkeypatch.setattr(modules, "_build", refuse)
    for argv, out in zip(argvs, want):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def _forge_characters(scale):
    def patch(monkeypatch):
        real = modules.irreducible_value
        monkeypatch.setattr(
            modules, "irreducible_value", lambda shape, t: scale * real(shape, t)
        )

    return patch


@pytest.mark.parametrize(
    "forge, argv, message",
    [
        (_forge_characters(Fraction(1, 2)), ["lie", "4"],
         "the multiplicity of V(3,1) in lie(4) is 1/2, not a dimension"),
        (_forge_characters(-1), ["lie", "4"],
         "the multiplicity of V(3,1) in lie(4) is -1, not a dimension"),
        # each a_lambda and each f_lambda doubles: four times dim M
        (_forge_characters(2), ["lie", "4"],
         "lie(4): its irreducibles sum to dimension 24, the induced module has 6"),
        # regular(3) is V(3) + 2 V(2,1) + V(1,1,1); six copies of V(3) have
        # its dimension but not its trace counts
        (lambda mp: mp.setattr(cubical, "multiplicities", lambda module, group: {(3,): 6}),
         ["ass", "3"],
         "regular(3)/S3: its irreducibles sum to dimension 6 in degree 1, its trace count is 1"),
    ],
    ids=["fraction", "negative", "dimension", "trace-count"],
)
def test_forged_multiplicities_exit_4(forge, argv, message, monkeypatch, capsys):
    forge(monkeypatch)
    assert main(["betti", "--family", argv[0], "--n", argv[1]]) == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_a_specht_module_failing_the_coxeter_check_is_an_internal_error(monkeypatch, capsys):
    real = modules._check_coxeter

    def doubled_first_generator(name, n, dim, mats):
        real(name, n, dim, [mats[0].scale(2)] + mats[1:] if mats else mats)

    monkeypatch.setattr(modules, "_check_coxeter", doubled_first_generator)
    assert main(["betti", "--family", "lie", "--n", "3"]) == 4
    assert capsys.readouterr().err == (
        "internal error: the seminormal form of V(2,1): "
        "V(2,1): generator s1 does not square to the identity\n"
    )


def test_a_braid_relation_costs_three_products(monkeypatch):
    calls = []
    real = RationalMatrix.__mul__
    monkeypatch.setattr(
        RationalMatrix, "__mul__", lambda a, b: (calls.append(1), real(a, b))[1]
    )
    module = specht((3, 2, 1))
    calls.clear()
    modules._check_coxeter(module.name, 6, module.dim, module.gen_actions)
    # 5 squares, 4 braid relations, 6 distant pairs
    assert len(calls) == 5 + 3 * 4 + 2 * 6


def test_nine_slots_of_the_word_complex_are_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["betti", "--family", "full", "--n", "9"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "resource cap: the size of isotypic mode for trivial(9)/G9 is 670720, above the "
        "cap 450000; raise it with --cap to force the computation\n"
    )
    # the character table is refused before a character is read
    start = time.perf_counter()
    assert main(["betti", "--family", "full", "--n", "30", "--mmax", "2"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(
        "resource cap: the size of the character table of S30 that isotypic mode reads "
        "for trivial(30)/G30 is 31404816, above the cap"
    )


def test_harrison_at_nine_slots_is_refused_at_once(capsys):
    # regular(9) is never built: its closed character gives a_lambda = f_lambda,
    # so the stabilizer term is full(9)'s
    start = time.perf_counter()
    assert main(["betti", "--family", "harrison", "--n", "9"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "resource cap: the size of isotypic mode for harrison(regular(9)/S9) is 670720, "
        "above the cap 450000; raise it with --cap to force the computation\n"
    )
    start = time.perf_counter()
    assert main(["betti", "--family", "harrison", "--n", "30"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(
        "resource cap: the size of the character table of S30 that isotypic mode reads "
        "for harrison(regular(30)/S30) is 31404816, above the cap"
    )


def test_a_hundred_slots_are_refused_before_a_partition_is_listed(capsys):
    # the closed form of trivial(100) is read one class at a time, so the
    # character table's size, p(100)^2, is the first count
    start = time.perf_counter()
    assert main(["betti", "--family", "full", "--n", "100"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(
        f"resource cap: the size of the character table of S100 that isotypic mode reads "
        f"for trivial(100)/G100 is {partition_count(100) ** 2}, above the cap"
    )


def test_every_irreducible_reads_the_same_count_tables_and_located_terms(monkeypatch):
    # regular(4) holds all five V_lambda; the route still evaluates each
    # onto count once per (class, degree) and each coface of Q once per
    # orbit representative
    calls = Counter()
    for name in ("fixed_onto_words", "coface"):
        real = getattr(cubical, name)
        monkeypatch.setattr(
            cubical, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        )
    cubical._young_located.cache_clear()
    module, sym = builtin_character("regular", 4), symmetric_group(4)
    assert len(multiplicities(module, sym)) == partition_count(4)
    table = cubical.cubical_complex(module, sym, 6, "isotypic").betti_table()
    assert table == cubical.cubical_complex(builtin("regular", 4), sym, 6, "quotient").betti_table()
    # Q has degrees 1..4, and C(3, m - 1) orbits in degree m, each with the
    # cofaces 1..m; the differential out of degree 4 lands in a zero degree
    assert calls["fixed_onto_words"] == partition_count(4) * 4
    assert calls["coface"] == sum(comb(3, m - 1) * m for m in (1, 2, 3))


def _refused_counts(argv, capsys):
    """Every count a betti run prints as it is refused, from cap 0 up."""
    counts = [0]
    while main(argv + ["--cap", str(counts[-1])]) == 3:
        counts.append(int(capsys.readouterr().err.split(" is ")[1].split(",")[0]))
    capsys.readouterr()
    return counts[1:]


def test_the_isotypic_size_is_the_sum_of_the_irreducibles_quotient_sizes(capsys):
    # at --mmax 2 the quotient stops at degree 3, so some prefixes of its
    # stabilizers' generators are the stabilizer of no orbit of Q; the
    # quotient route counts their bases too
    sym = symmetric_group(5)
    stabilizers = {
        o.stabilizer for m in (1, 2, 3) for o in cubical.orbit_decomposition(5, m, sym, True)
    }
    assert len(cubical.basis_groups(stabilizers)) > len(stabilizers) == 1 + 4 + 6
    for family, kind, build in [
        ("lie", "lie", cubical.cubical_complex),
        ("harrison", "regular", harrison_complex),
    ]:
        sizes = []
        for shape in multiplicities(builtin_character(kind, 5), sym):
            # the quotient's dimension sum, then that plus dim V per basis,
            # its size; Harrison's Dynkin terms count, refused later, is no size
            cap = size = 0
            while True:
                try:
                    build(specht(shape), sym, 2, "quotient", cap)
                except cubical.DimensionCapExceeded as refused:
                    cap = refused.required
                    if str(refused).startswith("the size of quotient mode for "):
                        size = cap
                    continue
                break
            sizes.append(size)
        counts = _refused_counts(["betti", "--family", family, "--n", "5", "--mmax", "2"], capsys)
        assert counts[0] == partition_count(5) ** 2
        assert counts[-1] == sum(sizes), family
