from itertools import permutations

import pytest
from conftest import clear_realization_caches, filtered_lyndon_words

import cubix.freelie as freelie
from cubix.freelie import (
    expand,
    is_lyndon,
    left_normed,
    lie_basis_multilinear,
    lie_projector_basis,
    lyndon_bracketing,
    lyndon_words,
    totient,
    witt_dim,
)
from cubix.linalg import InvariantError, RowSpanSolver


def test_expand_small_brackets():
    assert expand(1) == {(1,): 1}
    assert expand((1, 2)) == {(1, 2): 1, (2, 1): -1}
    assert expand(((1, 2), 3)) == {
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (3, 1, 2): -1,
        (3, 2, 1): 1,
    }


def test_expand_repeated_letters():
    assert expand((1, (1, 2))) == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}
    assert expand(((1, 2), 2)) == {(1, 2, 2): 1, (2, 1, 2): -2, (2, 2, 1): 1}


def test_jacobi_identity_expands_to_zero():
    acc = {}
    for tree in (((1, 2), 3), ((2, 3), 1), ((3, 1), 2)):
        for w, c in expand(tree).items():
            acc[w] = acc.get(w, 0) + c
    assert all(c == 0 for c in acc.values())


def test_antisymmetry():
    a = expand((1, 2))
    b = expand((2, 1))
    assert a == {w: -c for w, c in b.items()}


def test_left_normed_shape():
    assert left_normed((1, 2, 3)) == ((1, 2), 3)
    assert left_normed((1,)) == 1


def test_lyndon_words_small():
    assert lyndon_words(2, 1) == [(1,), (2,)]
    assert lyndon_words(2, 2) == [(1, 2)]
    assert lyndon_words(2, 3) == [(1, 1, 2), (1, 2, 2)]
    assert not is_lyndon((1, 2, 1, 2))
    assert is_lyndon((1, 1, 2, 2))


def test_lyndon_count_matches_witt_dim():
    for m in range(1, 5):
        for n in range(1, 7):
            assert len(lyndon_words(m, n)) == witt_dim(m, n)


@pytest.mark.parametrize("m", range(1, 7))
def test_lyndon_words_match_the_filtered_words(m):
    for n in range(1, 7):
        got = lyndon_words(m, n)
        assert got == filtered_lyndon_words(m, n)
        assert len(got) == witt_dim(m, n)


def test_totient_values():
    assert [totient(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_an_indivisible_witt_sum_is_an_invariant_error(monkeypatch):
    # with mu = 1 throughout, the sum for m=2, n=3 is 2^3 + 2 = 10
    monkeypatch.setattr(freelie, "mobius", lambda d: 1)
    message = r"^Witt dimension m=2 n=3: 10 is not divisible by 3$"
    with pytest.raises(InvariantError, match=message):
        witt_dim(2, 3)


def test_wrong_lyndon_count_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(freelie, "witt_dim", lambda m, n: 0)
    lie_projector_basis.cache_clear()
    with pytest.raises(InvariantError):
        lie_projector_basis(2, 3)


def test_an_expansion_that_does_not_lead_with_its_word_is_an_invariant_error(monkeypatch):
    # the Lyndon vectors are independent because each leads with its word
    clear_realization_caches()
    monkeypatch.setattr(freelie, "lyndon_expansion", lambda w: {w: -1, w[::-1]: 1})
    message = r"^Lyndon basis m=2 n=2: \(1, 2\) does not lead its expansion$"
    with pytest.raises(InvariantError, match=message):
        lie_projector_basis(2, 2)


def test_witt_dim_values():
    assert witt_dim(5, 1) == 5
    assert witt_dim(2, 2) == 1
    assert witt_dim(2, 3) == 2
    assert witt_dim(3, 3) == 8
    assert witt_dim(2, 6) == 9


def test_lyndon_bracketing_standard_factorization():
    assert lyndon_bracketing((1, 2)) == (1, 2)
    assert lyndon_bracketing((1, 1, 2)) == (1, (1, 2))
    assert lyndon_bracketing((1, 2, 2)) == ((1, 2), 2)
    # longest proper Lyndon suffix of 1122 is 122
    assert lyndon_bracketing((1, 1, 2, 2)) == (1, ((1, 2), 2))


def test_multilinear_basis_sizes_and_leading_terms():
    for n in range(1, 7):
        basis = lie_basis_multilinear(n)
        assert len(basis) == [1, 1, 2, 6, 24, 120][n - 1]
        for seq, vec in basis:
            assert seq[0] == 1
            # left-normed bracket expansion starts with its own word
            assert vec[seq] == 1
            assert all(len(w) == n for w in vec)


@pytest.mark.parametrize("n", range(1, 8))
def test_each_left_normed_bracket_leads_at_its_own_word(n):
    # Reutenauer, Free Lie Algebras: in sorted word order the bracket of
    # x_1 s(2) ... s(n) leads at that word with coefficient 1, so the
    # brackets are in echelon form, which modules._restrict_to_lie relies on
    for seq, vec in lie_basis_multilinear(n):
        assert min(vec) == seq
        assert vec[seq] == 1


def test_multilinear_basis_n3_members():
    basis = dict(lie_basis_multilinear(3))
    assert basis[(1, 2, 3)] == {
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (3, 1, 2): -1,
        (3, 2, 1): 1,
    }
    assert (1, 3, 2) in basis


def test_projector_basis_counts():
    for m in range(1, 4):
        for n in range(1, 5):
            assert len(lie_projector_basis(m, n)) == witt_dim(m, n)
    assert len(lie_projector_basis(2, 2)) == 1
    assert lie_projector_basis(2, 2)[0] == {(1, 2): 1, (2, 1): -1}


def test_relabeling_preserves_lie_subspace():
    # applying a letter permutation to a Lie element keeps it in the subspace
    for m in range(2, 4):
        for n in range(2, 5):
            basis = lie_projector_basis(m, n)
            # index every word and relabeled word in lex order, so that each
            # expansion leads at its Lyndon word and the rows are echelon
            words = {
                tuple(sigma[x - 1] for x in w)
                for sigma in permutations(range(1, m + 1))
                for vec in basis
                for w in vec
            }
            idx = {w: i for i, w in enumerate(sorted(words))}
            rows = [{idx[w]: c for w, c in vec.items()} for vec in basis]
            solver = RowSpanSolver(rows, len(idx))
            for sigma in permutations(range(1, m + 1)):
                for vec in basis[: min(len(basis), 4)]:
                    moved = {}
                    for w, c in vec.items():
                        moved[idx[tuple(sigma[x - 1] for x in w)]] = c
                    assert solver.coords(moved) is not None


def test_bracketing_expansion_leading_coefficient():
    # the standard bracketing of a Lyndon word expands with that word as
    # lex-least term, coefficient 1
    for m in range(2, 4):
        for n in range(2, 5):
            for w, vec in zip(lyndon_words(m, n), lie_projector_basis(m, n)):
                assert vec[w] == 1
                assert min(vec) == w


def test_expansion_term_count_bound():
    for n in range(1, 6):
        for _, vec in lie_basis_multilinear(n):
            assert len(vec) <= 2 ** (n - 1)


def test_all_multilinear_words_appear_in_sn_space():
    n = 4
    words = set()
    for _, vec in lie_basis_multilinear(n):
        words.update(vec)
    assert words <= set(permutations(range(1, n + 1)))
