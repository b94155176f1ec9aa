from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import named_matrix
from coxkit.wordcore import ClosureBudgetError, WordKernel

from oracles import all_reduced_words

MATRICES = [named_matrix(n) for n in ("A3", "B3", "H3", "I2(7)", "I2(inf)", "affA2")]


def _random_words(matrix, count=120, max_len=12, seed=11):
    rng = random.Random(seed + matrix.rank)
    return [bytes(rng.randrange(matrix.rank) for _ in range(rng.randrange(max_len + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: m.name)
def test_shortlex_properties(matrix):
    kernel = WordKernel(matrix.entries)
    for w in _random_words(matrix, count=60):
        red = kernel.reduce(w)
        nf = kernel.shortlex(w)
        assert len(red) <= len(w)
        assert len(nf) == len(red)
        assert kernel.is_reduced(nf)
        assert kernel.shortlex(nf) == nf  # idempotent
        assert nf <= red  # least member of the braid class


@pytest.mark.parametrize("matrix", MATRICES[:3], ids=lambda m: m.name)
def test_shortlex_is_least_reduced_word(matrix):
    kernel = WordKernel(matrix.entries)
    for w in _random_words(matrix, count=25, max_len=8, seed=5):
        nf = kernel.shortlex(w)
        words = all_reduced_words(matrix, kernel.reduce(w))
        assert tuple(nf) == min(words)


def test_reduced_iff_length_preserved():
    matrix = named_matrix("B3")
    kernel = WordKernel(matrix.entries)
    for w in _random_words(matrix, count=80, seed=3):
        assert kernel.is_reduced(w) == (len(kernel.reduce(w)) == len(w))


def test_closure_budget_error():
    matrix = named_matrix("A5")
    kernel = WordKernel(matrix.entries, 5)
    # the longest element has a huge braid class
    long_word = bytes([0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0])
    with pytest.raises(ClosureBudgetError):
        kernel.shortlex(long_word)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10))
def test_involution_of_appended_inverse(letters):
    matrix = named_matrix("B3")
    kernel = WordKernel(matrix.entries)
    w = bytes(letters)
    assert kernel.reduce(w + bytes(reversed(w))) == b""
