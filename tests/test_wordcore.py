from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import (is_reduced, named_matrix, normal_form, parse_coxeter_matrix,
                    reduce_word)

from models import model_ball
from oracles import all_reduced_words, braid_normal_form, braid_reduce

MATRICES = [named_matrix(n) for n in ("A3", "B3", "H3", "I2(7)", "I2(inf)", "affA2")]
HYPERBOLIC = parse_coxeter_matrix("1 3 inf; 3 1 3; inf 3 1")


def _random_words(matrix, count=120, max_len=12, seed=11):
    rng = random.Random(seed + matrix.rank)
    return [bytes(rng.randrange(matrix.rank) for _ in range(rng.randrange(max_len + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: m.name)
def test_shortlex_properties(matrix):
    for w in _random_words(matrix, count=60):
        red = reduce_word(matrix, w)
        nf = normal_form(matrix, w)
        assert len(red) <= len(w)
        assert len(nf) == len(red)
        assert is_reduced(matrix, nf)
        assert normal_form(matrix, nf) == nf  # idempotent
        assert nf <= red  # least member of the braid class


@pytest.mark.parametrize("matrix", MATRICES[:3], ids=lambda m: m.name)
def test_shortlex_is_least_reduced_word(matrix):
    for w in _random_words(matrix, count=25, max_len=8, seed=5):
        assert normal_form(matrix, w) == min(all_reduced_words(matrix, w))


def test_reduced_iff_length_preserved():
    matrix = named_matrix("B3")
    for w in _random_words(matrix, count=80, seed=3):
        assert is_reduced(matrix, w) == (len(braid_reduce(matrix, w)) == len(w))


@pytest.mark.parametrize("matrix", MATRICES + [HYPERBOLIC, named_matrix("F4")],
                         ids=lambda m: m.name or "hyperbolic")
def test_free_words_match_braid_oracle(matrix):
    for w in _random_words(matrix, count=40, max_len=10, seed=17):
        want = braid_normal_form(matrix, w)
        assert normal_form(matrix, w) == want
        assert reduce_word(matrix, w) == want
        assert is_reduced(matrix, w) == (len(want) == len(w))


def test_longest_word_of_a5():
    # its braid class has 292,864 words, so a search over it is costly
    matrix = named_matrix("A5")
    w0 = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0)
    top = model_ball(matrix, 15)
    top_word = tuple(top.word(max(range(len(top)), key=top.length)))
    assert normal_form(matrix, w0) == top_word
    assert is_reduced(matrix, w0)
    assert not is_reduced(matrix, w0 + (3,))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10))
def test_involution_of_appended_inverse(letters):
    matrix = named_matrix("B3")
    assert reduce_word(matrix, letters + letters[::-1]) == ()
