from itertools import permutations

from cubix.perm import (
    Permutation,
    PermutationGroup,
    adjacent_transposition,
    cycle_classes,
    cyclic_group,
    generated_subgroup,
    identity_permutation,
    symmetric_group,
    trivial_group,
    young_subgroup,
)


def test_composition_acts_right_to_left():
    p = Permutation((2, 3, 1))
    q = Permutation((2, 3, 1))
    # (p*q)(1) = p(q(1)) = p(2) = 3
    assert (p * q).images == (3, 1, 2)


def test_call_and_inverse():
    p = Permutation((3, 1, 4, 2))
    assert [p(i) for i in (1, 2, 3, 4)] == [3, 1, 4, 2]
    assert p * p.inverse() == identity_permutation(4)
    assert p.inverse() * p == identity_permutation(4)


def test_sign_multiplicative_on_s4():
    elems = [Permutation(w) for w in permutations((1, 2, 3, 4))]
    for p in elems[:8]:
        for q in elems[::3]:
            assert (p * q).sign() == p.sign() * q.sign()


def test_descents():
    assert Permutation((2, 1, 3)).descents() == 1
    assert Permutation((1, 2, 3)).descents() == 0
    assert Permutation((3, 2, 1)).descents() == 2


def test_adjacent_factorization_recomposes():
    # every element of S_5, reduced length equals inversion count
    for w in permutations((1, 2, 3, 4, 5)):
        p = Permutation(w)
        word = p.adjacent_factorization()
        assert len(word) == p.inversions()
        acc = identity_permutation(5)
        for i in word:
            acc = acc * adjacent_transposition(5, i)
        assert acc == p


def test_factorization_example():
    # (3,1,2) maps 1->3, 2->1, 3->2; equals s2 * s1
    p = Permutation((3, 1, 2))
    s1 = adjacent_transposition(3, 1)
    s2 = adjacent_transposition(3, 2)
    assert s2 * s1 == p
    assert p.adjacent_factorization() == [2, 1]


def test_symmetric_group_enumeration():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert s3.is_symmetric()
    words = [p.images for p in s3.elements]
    assert words == sorted(words)


def test_symmetric_order_comes_from_the_adjacent_transpositions():
    s7 = symmetric_group(7)
    assert s7.order == 5040
    assert s7.is_symmetric()
    assert "elements" not in vars(s7)
    # S_5 from (1 2) and the 5-cycle: not adjacent generators, so counted
    cyc = cyclic_group(5).generators[0]
    s5 = PermutationGroup(5, (adjacent_transposition(5, 1), cyc))
    assert s5.is_symmetric()
    assert "elements" in vars(s5) and len(s5.elements) == 120
    for group in (cyclic_group(4), young_subgroup((2, 2)), trivial_group(3)):
        assert not group.is_symmetric()


def test_cyclic_and_trivial_groups():
    c4 = cyclic_group(4)
    assert c4.order == 4
    assert Permutation((2, 3, 4, 1)) in c4.elements
    assert Permutation((2, 1, 4, 3)) not in c4.elements
    assert trivial_group(3).order == 1


def test_young_subgroup_orders():
    assert young_subgroup((2, 1)).order == 2
    assert young_subgroup((2, 2)).order == 4
    assert young_subgroup((3, 0, 2)).order == 12
    assert young_subgroup((1, 1, 1)).order == 1
    # a Young subgroup only permutes within blocks
    h = young_subgroup((2, 2))
    for p in h.elements:
        assert {p(1), p(2)} == {1, 2}
        assert {p(3), p(4)} == {3, 4}


def test_group_elements_cached_and_deterministic():
    g = symmetric_group(4)
    assert g.elements is g.elements
    assert PermutationGroup(4, g.generators).elements == g.elements


def test_cycle_classes_cover_the_group():
    for n in (1, 2, 3, 4, 5):
        group = symmetric_group(n)
        classes = list(cycle_classes(group))
        by_type = {}
        for g in group.elements:
            by_type[g.cycle_type()] = by_type.get(g.cycle_type(), 0) + 1
        assert {rep.cycle_type(): count for rep, count in classes} == by_type
    # a proper subgroup is summed element by element
    c4 = cyclic_group(4)
    pairs = [(rep.images, count) for rep, count in cycle_classes(c4)]
    assert pairs == [((1, 2, 3, 4), 1), ((2, 3, 4, 1), 1), ((3, 4, 1, 2), 1), ((4, 1, 2, 3), 1)]


def test_cycle_classes_follow_the_partition_order():
    reps = [rep.cycle_type() for rep, _ in cycle_classes(symmetric_group(4))]
    assert reps == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_generated_subgroup_keeps_a_greedy_generating_set():
    s4 = symmetric_group(4)
    group = generated_subgroup(4, reversed(s4.elements))
    assert group.order == 24
    assert identity_permutation(4) not in group.generators
    # sorted walk: (1,2,4,3) and (1,3,2,4) generate only S3 on {2,3,4}
    assert [g.images for g in group.generators] == [(1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]
    assert generated_subgroup(4, young_subgroup((2, 2)).elements) == generated_subgroup(
        4, reversed(young_subgroup((2, 2)).elements)
    )


def test_permutations_compare_and_hash_by_their_images():
    p, q = Permutation((2, 1, 3)), Permutation((2, 1, 3))
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash(((2, 1, 3),))
    assert p != Permutation((1, 2, 3))
    assert p != (2, 1, 3) and (2, 1, 3) != p
    assert len({p, q, Permutation((1, 2, 3))}) == 2
    assert repr(p) == "Permutation((2, 1, 3))"


def test_groups_compare_and_hash_by_degree_and_generators():
    gens = (Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    g, h = PermutationGroup(3, gens), PermutationGroup(3, tuple(gens))
    assert g == h and hash(g) == hash(h) == hash((3, gens))
    g.elements  # a cached property does not take part in equality
    assert g == h
    assert g != PermutationGroup(3, gens[:1])
    assert g != PermutationGroup(4, ())
    assert g != (3, gens)
    assert {g: 1}[h] == 1
