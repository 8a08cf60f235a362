import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap.heaps import (
    FreeHeapWord,
    check_label,
    nary_product,
    reduce_word,
    ternary,
    word,
    word_from_tree,
)
from oracles import free_reduce_letters, random_odd_word

ALPHABET = ("a", "b", "c", "d", "e")

odd_words = st.integers(min_value=0, max_value=10).flatmap(
    lambda k: st.tuples(*([st.sampled_from(ALPHABET)] * (2 * k + 1)))
).map(FreeHeapWord)


def test_label_validation():
    assert check_label("Z/2") == "Z/2"
    for bad in ("", "a b", "x,y", "a[", "p:q", "u*v"):
        with pytest.raises(ValueError):
            check_label(bad)


def test_even_length_rejected():
    with pytest.raises(ValueError):
        word("x", "y")
    with pytest.raises(ValueError):
        nary_product([word("x"), word("y")])


def test_reduce_examples():
    assert reduce_word(word("x", "x", "y")) == word("y")
    assert reduce_word(word("a")) == word("a")
    # free-group oracle: a b^-1 b a^-1 c = c
    assert reduce_word(word("a", "b", "b", "a", "c")) == word("c")


def test_nary_examples():
    assert nary_product([word("a"), word("b"), word("c")]) == word("a", "b", "c")
    assert nary_product([word("x"), word("x"), word("y")]) == word("y")
    assert nary_product([word("a", "b", "c"), word("d"), word("e")]) == word("a", "b", "c", "d", "e")


def test_exhaustive_free_group_oracle():
    """All words of length <= 7 over three letters agree with the oracle."""
    for length in (1, 3, 5, 7):
        for letters in itertools.product("xyz", repeat=length):
            got = reduce_word(FreeHeapWord(letters))
            assert got.letters == free_reduce_letters(letters)
            assert free_reduce_letters(got.letters) == got.letters


@given(odd_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert free_reduce_letters(r.letters) == r.letters


@given(odd_words, st.sampled_from(ALPHABET))
def test_cancellation_at_both_ends(w, x):
    u = reduce_word(w)
    assert reduce_word(FreeHeapWord((x, x) + u.letters)) == u
    assert reduce_word(FreeHeapWord(u.letters + (x, x))) == u


@given(odd_words, odd_words)
def test_malcev_identities_on_words(w, y):
    assert ternary(w, w, y) == reduce_word(y)
    assert ternary(y, w, w) == reduce_word(y)


@settings(max_examples=200)
@given(odd_words, odd_words, odd_words, odd_words, odd_words)
def test_para_associativity_on_words(a, b, c, d, e):
    assert ternary(a, b, ternary(c, d, e)) == ternary(ternary(a, b, c), d, e)


@given(st.sampled_from(ALPHABET), st.sampled_from(ALPHABET), st.sampled_from(ALPHABET),
       st.sampled_from(ALPHABET), st.sampled_from(ALPHABET))
def test_para_associativity_single_letters_via_nary(a, b, c, d, e):
    inner_right = nary_product([word(c), word(d), word(e)])
    inner_left = nary_product([word(a), word(b), word(c)])
    lhs = reduce_word(nary_product([word(a), word(b), inner_right]))
    rhs = reduce_word(nary_product([inner_left, word(d), word(e)]))
    assert lhs == rhs


def test_thousand_random_words_reduce_stably():
    rng = random.Random(2024)
    for _ in range(1000):
        w = FreeHeapWord(random_odd_word(rng, ALPHABET, 21))
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert r.letters == free_reduce_letters(w.letters)


def test_word_from_tree_flattens_nested_brackets():
    assert word_from_tree("a") == word("a")
    assert word_from_tree(["a", "b", "c"]) == word("a", "b", "c")
    # inner bracket in an inverted slot comes out reversed
    assert word_from_tree(["a", ["b", "c", "d"], "e"]) == word("a", "d", "c", "b", "e")
    with pytest.raises(ValueError):
        word_from_tree(["a", "b"])


def test_word_from_tree_matches_ternary_semantics():
    rng = random.Random(5)
    for _ in range(200):
        u = FreeHeapWord(random_odd_word(rng, ALPHABET, 9))
        v = FreeHeapWord(random_odd_word(rng, ALPHABET, 9))
        w = FreeHeapWord(random_odd_word(rng, ALPHABET, 9))
        tree = [list(u.letters) if len(u) > 1 else u.letters[0],
                list(v.letters) if len(v) > 1 else v.letters[0],
                list(w.letters) if len(w) > 1 else w.letters[0]]
        assert reduce_word(word_from_tree(tree)) == ternary(u, v, w)
